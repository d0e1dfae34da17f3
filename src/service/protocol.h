/**
 * @file
 * The permuqd wire protocol: length-prefixed JSON frames.
 *
 * A frame is a 4-byte big-endian payload length followed by exactly
 * that many bytes of UTF-8 JSON (one object per frame). The length
 * covers the JSON payload only and is capped at kMaxFrameBytes; a
 * prefix above the cap is a protocol error and the connection is
 * closed (the stream cannot be resynchronized once framing is in
 * doubt). Inside an intact frame, bad JSON or a bad request yields a
 * typed error frame and the connection stays usable — that split is
 * what the robustness tests and `permuq-fuzz --protocol` pin down.
 *
 * Every payload object carries:
 *   v    protocol version (kProtocolVersion); mismatch => bad_version
 *   id   caller-chosen request id, echoed verbatim on the response
 *        (responses to pipelined requests may arrive out of order)
 *   type "compile" | "ping" | "metrics" | "shutdown" on requests;
 *        "result" | "pong" | "metrics" | "ok" | "error" on responses
 *
 * Compile responses are assembled as a fixed per-request envelope
 * (id, cached flag, queue/compile wall times) followed by a *plan
 * fragment* — tier, selected candidate, metrics, the QASM program,
 * and the CompileReport JSON. The fragment is what the plan cache
 * stores, so a warm (hit) response replays the cold response's
 * fragment byte for byte; in particular the QASM plan is
 * byte-identical to a one-shot `permuqc --qasm` compile of the same
 * request on both paths.
 *
 * permuqd serializes each plan once: the fragment is written straight
 * from the circuit into one string of exact size, and every result
 * frame goes out as one gather write of its length and envelope, the
 * shared fragment and the closing brace. The string functions
 * (build_plan_fragment from QASM text, build_result_payload,
 * encode_frame) produce the same bytes through the same code.
 *
 * Apart from the send_* functions, everything here is
 * transport-agnostic (plain byte buffers), so the codec is directly
 * fuzzable and unit-testable without sockets.
 */
#ifndef PERMUQ_SERVICE_PROTOCOL_H
#define PERMUQ_SERVICE_PROTOCOL_H

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/plan.h"

namespace permuq::circuit {
class QasmProgram;
} // namespace permuq::circuit

namespace permuq::service {

/** Protocol version spoken by this build. */
constexpr std::int32_t kProtocolVersion = 1;

/** Hard cap on one frame's payload; larger prefixes are protocol
 *  errors, and a plan whose result frame would exceed it is refused
 *  with a typed `oversized` error. */
constexpr std::size_t kMaxFrameBytes = 64u * 1024u * 1024u;

/** Most bytes a result payload spends around its plan fragment: the
 *  envelope with a 19-digit id and wall times below 10^16 ms (20
 *  characters each at "%.3f"), plus the closing brace. */
constexpr std::size_t kMaxResultEnvelopeBytes =
    sizeof("{\"v\":1,\"id\":,\"type\":\"result\",\"cached\":false,"
           "\"queue_ms\":,\"compile_ms\":,}") -
    1 + 19 + 2 * 20;

/** Largest plan fragment a result frame can carry. */
constexpr std::size_t kMaxFragmentBytes =
    kMaxFrameBytes - kMaxResultEnvelopeBytes;

// ------------------------------------------------------------- errors

/** Typed error kinds carried by "error" response frames. */
enum class ErrorKind : std::int32_t
{
    /** A frame over kMaxFrameBytes. For an oversized length prefix
     *  (framing is broken) the sender closes the connection after this
     *  error; a plan whose result frame would exceed the cap is
     *  refused with it and the connection stays usable. */
    Oversized,
    /** Payload is not valid JSON / not a JSON object. */
    BadJson,
    /** Unsupported protocol version. */
    BadVersion,
    /** Well-formed JSON but an invalid request (unknown type, unknown
     *  arch, out-of-range field, ...). */
    BadRequest,
    /** Admission control: the request queue is full. Retry later. */
    Overloaded,
    /** The compiler threw; message carries what(). */
    Internal,
};

/** Wire name of @p kind ("oversized", "bad_json", ...). */
const char* to_string(ErrorKind kind);

/** Parse a wire name back into @p out; false if unknown. */
bool parse_error_kind(const std::string& name, ErrorKind& out);

// --------------------------------------------------------------- JSON

/**
 * A minimal strict JSON value (null / bool / number / string / array
 * / object), just enough for the protocol payloads. Numbers keep both
 * an integer and a double view (integer when the literal had no
 * fraction/exponent and fits std::int64_t). Parsing is strict RFC
 * 8259: no trailing garbage, no comments, \uXXXX escapes decoded to
 * UTF-8, recursion depth bounded (kMaxJsonDepth) so deeply nested
 * fuzz inputs cannot overflow the stack.
 */
class Json
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Json() = default;

    Type type() const { return type_; }
    bool is_object() const { return type_ == Type::Object; }
    bool is_array() const { return type_ == Type::Array; }
    bool is_string() const { return type_ == Type::String; }
    bool is_number() const { return type_ == Type::Number; }
    bool is_bool() const { return type_ == Type::Bool; }

    bool bool_value() const { return bool_; }
    /** Integer view (truncated from the double view when the literal
     *  was fractional). */
    std::int64_t int_value() const { return int_; }
    double double_value() const { return double_; }
    const std::string& string_value() const { return string_; }
    const std::vector<Json>& array() const { return array_; }

    /** Object member, or nullptr when absent (or not an object). */
    const Json* find(const std::string& key) const;

    /** Members in document order (duplicate keys rejected at parse). */
    const std::vector<std::pair<std::string, Json>>&
    members() const
    {
        return members_;
    }

    /**
     * Parse @p text as one JSON document. Returns nullptr and fills
     * @p error on any violation.
     */
    static std::unique_ptr<Json> parse(const std::string& text,
                                       std::string* error);

    static constexpr int kMaxJsonDepth = 64;

  private:
    friend class JsonParser;

    Type type_ = Type::Null;
    bool bool_ = false;
    std::int64_t int_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::vector<Json> array_;
    std::vector<std::pair<std::string, Json>> members_;
};

// ------------------------------------------------------------ framing

/** Prepend the 4-byte big-endian length prefix to @p payload. */
std::string encode_frame(const std::string& payload);

/**
 * Write @p pieces to the socket @p fd, in order, as gather writes
 * (sendmsg) resumed after every partial count; on a non-blocking
 * socket, EAGAIN waits in poll(). False on a socket error.
 */
bool send_pieces(int fd, std::initializer_list<std::string_view> pieces);

/** Write encode_frame(@p payload) to @p fd without copying the
 *  payload. */
bool send_frame(int fd, const std::string& payload);

/**
 * Incremental frame decoder: feed() raw bytes as they arrive, then
 * pull complete payloads with next(). Once a frame-level error is
 * reported the decoder is poisoned (every later next() returns Error)
 * — callers must close the connection, matching the sender contract
 * in the file comment.
 */
class FrameDecoder
{
  public:
    explicit FrameDecoder(std::size_t max_frame_bytes = kMaxFrameBytes)
        : max_frame_bytes_(max_frame_bytes)
    {
    }

    enum class Status
    {
        NeedMore, ///< no complete frame buffered yet
        Frame,    ///< @p payload holds the next frame's payload
        Error,    ///< framing is broken; close the connection
    };

    void feed(const void* data, std::size_t n);

    Status next(std::string& payload, std::string& error);

    /** Bytes buffered but not yet consumed (a nonzero value at EOF
     *  means the peer disconnected mid-frame). */
    std::size_t buffered_bytes() const { return buffer_.size() - pos_; }

  private:
    std::string buffer_;
    std::size_t pos_ = 0;
    std::size_t max_frame_bytes_;
    bool poisoned_ = false;
};

// ----------------------------------------------------------- requests

/** One decoded request frame (any type). Compile requests carry the
 *  whole core::PlanRequest; the other types ignore it. */
struct Request : core::PlanRequest
{
    std::int64_t id = 0;
    /** "compile" | "ping" | "metrics" | "shutdown". */
    std::string type = "compile";
};

/**
 * Parse one request payload. On failure fills @p kind / @p message
 * (BadJson, BadVersion, or BadRequest) and returns false. Unknown
 * object keys are rejected (BadRequest) so client/daemon version skew
 * fails loudly instead of silently ignoring options. So is what the
 * compile would refuse: an arch outside arch::named_devices(), and a
 * random spec drawing more edges than the explicit-edge cap.
 */
bool parse_request(const std::string& payload, Request& out,
                   ErrorKind& kind, std::string& message);

/** Serialize @p request as a frame payload (client side). */
std::string build_request_payload(const Request& request);

// ---------------------------------------------------------- responses

/** Summary fields of a compiled plan, mirrored into the response. */
struct PlanSummary
{
    std::string tier;     ///< tier actually served
    std::string selected; ///< winning candidate
    std::int64_t depth = 0;
    std::int64_t cx = 0;
    std::int64_t swaps = 0;
};

/**
 * The cacheable tail of a compile response: everything after the
 * per-request envelope. Byte-for-byte identical between a cold
 * compile and every warm replay of it.
 */
std::string build_plan_fragment(const PlanSummary& summary,
                                const std::string& qasm,
                                const std::string& report_json);

/**
 * The same fragment written straight from the circuit into one string
 * of exact size: @p qasm must be built with common::append_json_escaped
 * as its encoder, and the result equals build_plan_fragment(summary,
 * to_qasm(circ, options), report_json) for the program's circuit and
 * options.
 */
std::string build_plan_fragment(const PlanSummary& summary,
                                const circuit::QasmProgram& qasm,
                                const std::string& report_json);

/** Exact size of build_plan_fragment(summary, qasm, report_json),
 *  known before any of it is written. */
std::size_t plan_fragment_size(const PlanSummary& summary,
                               const circuit::QasmProgram& qasm,
                               const std::string& report_json);

/**
 * Assemble a full "result" payload: the per-request envelope
 * (id, cached, queue/compile milliseconds) + @p fragment.
 */
std::string build_result_payload(std::int64_t id, bool cached,
                                 double queue_ms, double compile_ms,
                                 const std::string& fragment);

/**
 * Write encode_frame(build_result_payload(...)) to @p fd as one gather
 * write of the length and envelope, @p fragment and the closing brace,
 * so the (possibly cached, shared) fragment is never copied. False on a
 * socket error.
 */
bool send_result_frame(int fd, std::int64_t id, bool cached,
                       double queue_ms, double compile_ms,
                       const std::string& fragment);

/** A typed "error" payload. */
std::string build_error_payload(std::int64_t id, ErrorKind kind,
                                const std::string& message);

/** "pong" / "ok" acknowledgements and the "metrics" payload. */
std::string build_pong_payload(std::int64_t id);
std::string build_ok_payload(std::int64_t id);
std::string build_metrics_payload(std::int64_t id,
                                  const std::string& prometheus_text);

/** One decoded response frame (client side). */
struct Response
{
    std::int64_t id = 0;
    /** "result" | "pong" | "metrics" | "ok" | "error". */
    std::string type;
    bool cached = false;
    double queue_ms = 0.0;
    double compile_ms = 0.0;
    PlanSummary plan;
    std::string qasm;
    /** Raw CompileReport JSON object ("{}" when absent). */
    std::string report_json;
    /** The plan fragment exactly as it appeared on the wire (what the
     *  cache-identity tests compare). */
    std::string fragment;
    /** Error frames only. */
    ErrorKind error = ErrorKind::Internal;
    std::string message;
    /** Metrics frames only: Prometheus text exposition. */
    std::string prometheus;
};

/** Parse one response payload; false + @p error on malformed input. */
bool parse_response(const std::string& payload, Response& out,
                    std::string& error);

} // namespace permuq::service

#endif // PERMUQ_SERVICE_PROTOCOL_H
