#include "service/protocol.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include "arch/coupling_graph.h"
#include "circuit/qasm.h"
#include "common/error.h"
#include "common/json.h"
#include "problem/generators.h"

namespace permuq::service {

using common::append_json_escaped;

// ------------------------------------------------------------- errors

const char*
to_string(ErrorKind kind)
{
    switch (kind) {
    case ErrorKind::Oversized:
        return "oversized";
    case ErrorKind::BadJson:
        return "bad_json";
    case ErrorKind::BadVersion:
        return "bad_version";
    case ErrorKind::BadRequest:
        return "bad_request";
    case ErrorKind::Overloaded:
        return "overloaded";
    case ErrorKind::Internal:
        break;
    }
    return "internal";
}

bool
parse_error_kind(const std::string& name, ErrorKind& out)
{
    for (ErrorKind kind :
         {ErrorKind::Oversized, ErrorKind::BadJson, ErrorKind::BadVersion,
          ErrorKind::BadRequest, ErrorKind::Overloaded,
          ErrorKind::Internal}) {
        if (name == to_string(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

// --------------------------------------------------------------- JSON

const Json*
Json::find(const std::string& key) const
{
    for (const auto& [k, v] : members_)
        if (k == key)
            return &v;
    return nullptr;
}

/** Strict recursive-descent parser over a bounded depth. */
class JsonParser
{
  public:
    JsonParser(const std::string& text, std::string* error)
        : text_(text), error_(error)
    {
    }

    std::unique_ptr<Json>
    run()
    {
        auto value = std::make_unique<Json>();
        if (!parse_value(*value, 0))
            return nullptr;
        skip_ws();
        if (pos_ != text_.size())
            return fail("trailing bytes after the JSON document"), nullptr;
        return value;
    }

  private:
    void
    fail(const std::string& message)
    {
        if (error_ && error_->empty())
            *error_ = message + " at byte " + std::to_string(pos_);
    }

    void
    skip_ws()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    parse_value(Json& out, int depth)
    {
        if (depth > Json::kMaxJsonDepth) {
            fail("nesting deeper than the protocol bound");
            return false;
        }
        skip_ws();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return false;
        }
        const char c = text_[pos_];
        if (c == '{')
            return parse_object(out, depth);
        if (c == '[')
            return parse_array(out, depth);
        if (c == '"') {
            out.type_ = Json::Type::String;
            return parse_string(out.string_);
        }
        if (c == 't' || c == 'f')
            return parse_keyword(out);
        if (c == 'n')
            return parse_keyword(out);
        if (c == '-' || (c >= '0' && c <= '9'))
            return parse_number(out);
        fail(std::string("unexpected character '") + c + "'");
        return false;
    }

    bool
    parse_keyword(Json& out)
    {
        auto match = [&](const char* word) {
            const std::size_t len = std::strlen(word);
            if (text_.compare(pos_, len, word) != 0)
                return false;
            pos_ += len;
            return true;
        };
        if (match("true")) {
            out.type_ = Json::Type::Bool;
            out.bool_ = true;
            return true;
        }
        if (match("false")) {
            out.type_ = Json::Type::Bool;
            out.bool_ = false;
            return true;
        }
        if (match("null")) {
            out.type_ = Json::Type::Null;
            return true;
        }
        fail("bad keyword");
        return false;
    }

    bool
    parse_number(Json& out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        if (pos_ >= text_.size() || !std::isdigit(
                static_cast<unsigned char>(text_[pos_]))) {
            fail("bad number");
            return false;
        }
        if (text_[pos_] == '0')
            ++pos_;
        else
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        bool integral = true;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            integral = false;
            ++pos_;
            if (pos_ >= text_.size() || !std::isdigit(
                    static_cast<unsigned char>(text_[pos_]))) {
                fail("bad fraction");
                return false;
            }
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            integral = false;
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() || !std::isdigit(
                    static_cast<unsigned char>(text_[pos_]))) {
                fail("bad exponent");
                return false;
            }
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        const std::string literal = text_.substr(start, pos_ - start);
        out.type_ = Json::Type::Number;
        errno = 0;
        out.double_ = std::strtod(literal.c_str(), nullptr);
        if (!std::isfinite(out.double_)) {
            fail("number out of range");
            return false;
        }
        if (integral) {
            errno = 0;
            char* end = nullptr;
            const long long v = std::strtoll(literal.c_str(), &end, 10);
            if (errno == ERANGE) {
                fail("integer out of range");
                return false;
            }
            out.int_ = v;
        } else {
            out.int_ = static_cast<std::int64_t>(out.double_);
        }
        return true;
    }

    bool
    parse_string(std::string& out)
    {
        ++pos_; // opening quote (caller checked)
        out.clear();
        while (pos_ < text_.size()) {
            const unsigned char c =
                static_cast<unsigned char>(text_[pos_]);
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c < 0x20) {
                fail("unescaped control character in string");
                return false;
            }
            if (c != '\\') {
                out.push_back(static_cast<char>(c));
                ++pos_;
                continue;
            }
            ++pos_;
            if (pos_ >= text_.size()) {
                fail("dangling escape");
                return false;
            }
            const char e = text_[pos_++];
            switch (e) {
            case '"':
                out.push_back('"');
                break;
            case '\\':
                out.push_back('\\');
                break;
            case '/':
                out.push_back('/');
                break;
            case 'b':
                out.push_back('\b');
                break;
            case 'f':
                out.push_back('\f');
                break;
            case 'n':
                out.push_back('\n');
                break;
            case 'r':
                out.push_back('\r');
                break;
            case 't':
                out.push_back('\t');
                break;
            case 'u': {
                std::uint32_t code = 0;
                if (!parse_hex4(code))
                    return false;
                // Surrogate pair?
                if (code >= 0xD800 && code <= 0xDBFF) {
                    if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                        text_[pos_ + 1] != 'u') {
                        fail("lone high surrogate");
                        return false;
                    }
                    pos_ += 2;
                    std::uint32_t low = 0;
                    if (!parse_hex4(low))
                        return false;
                    if (low < 0xDC00 || low > 0xDFFF) {
                        fail("bad low surrogate");
                        return false;
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) +
                           (low - 0xDC00);
                } else if (code >= 0xDC00 && code <= 0xDFFF) {
                    fail("lone low surrogate");
                    return false;
                }
                append_utf8(out, code);
                break;
            }
            default:
                fail("bad escape");
                return false;
            }
        }
        fail("unterminated string");
        return false;
    }

    bool
    parse_hex4(std::uint32_t& out)
    {
        if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return false;
        }
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<std::uint32_t>(c - 'A' + 10);
            else {
                fail("bad \\u escape");
                return false;
            }
        }
        return true;
    }

    static void
    append_utf8(std::string& out, std::uint32_t code)
    {
        if (code < 0x80) {
            out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (code >> 18)));
            out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
    }

    bool
    parse_array(Json& out, int depth)
    {
        ++pos_; // '['
        out.type_ = Json::Type::Array;
        skip_ws();
        if (consume(']'))
            return true;
        for (;;) {
            Json element;
            if (!parse_value(element, depth + 1))
                return false;
            out.array_.push_back(std::move(element));
            if (consume(']'))
                return true;
            if (!consume(',')) {
                fail("expected ',' or ']' in array");
                return false;
            }
        }
    }

    bool
    parse_object(Json& out, int depth)
    {
        ++pos_; // '{'
        out.type_ = Json::Type::Object;
        skip_ws();
        if (consume('}'))
            return true;
        for (;;) {
            skip_ws();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                fail("expected object key");
                return false;
            }
            std::string key;
            if (!parse_string(key))
                return false;
            if (out.find(key) != nullptr) {
                fail("duplicate object key \"" + key + "\"");
                return false;
            }
            if (!consume(':')) {
                fail("expected ':' after object key");
                return false;
            }
            Json value;
            if (!parse_value(value, depth + 1))
                return false;
            out.members_.emplace_back(std::move(key), std::move(value));
            if (consume('}'))
                return true;
            if (!consume(',')) {
                fail("expected ',' or '}' in object");
                return false;
            }
        }
    }

    const std::string& text_;
    std::string* error_;
    std::size_t pos_ = 0;
};

std::unique_ptr<Json>
Json::parse(const std::string& text, std::string* error)
{
    if (error)
        error->clear();
    return JsonParser(text, error).run();
}

// ------------------------------------------------------------ framing

namespace {

/** Append the 4-byte big-endian length prefix of a payload. */
void
append_frame_prefix(std::string& out, std::size_t payload_bytes)
{
    const std::uint32_t n = static_cast<std::uint32_t>(payload_bytes);
    out.push_back(static_cast<char>((n >> 24) & 0xFF));
    out.push_back(static_cast<char>((n >> 16) & 0xFF));
    out.push_back(static_cast<char>((n >> 8) & 0xFF));
    out.push_back(static_cast<char>(n & 0xFF));
}

} // namespace

std::string
encode_frame(const std::string& payload)
{
    std::string frame;
    frame.reserve(payload.size() + 4);
    append_frame_prefix(frame, payload.size());
    frame += payload;
    return frame;
}

bool
send_pieces(int fd, std::initializer_list<std::string_view> pieces)
{
    iovec iov[4];
    panic_unless(pieces.size() <= std::size(iov),
                 "send_pieces takes at most four pieces");
    std::size_t count = 0;
    for (const std::string_view piece : pieces)
        iov[count++] = {const_cast<char*>(piece.data()), piece.size()};
    iovec* next = iov;
    while (count > 0) {
        msghdr message{};
        message.msg_iov = next;
        message.msg_iovlen = count;
        const ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                pollfd writable{fd, POLLOUT, 0};
                ::poll(&writable, 1, -1);
                continue;
            }
            return false;
        }
        // Drop the pieces this write completed; resume inside the next.
        std::size_t sent = static_cast<std::size_t>(n);
        while (count > 0 && sent >= next->iov_len) {
            sent -= next->iov_len;
            ++next;
            --count;
        }
        if (count > 0) {
            next->iov_base = static_cast<char*>(next->iov_base) + sent;
            next->iov_len -= sent;
        }
    }
    return true;
}

bool
send_frame(int fd, const std::string& payload)
{
    std::string prefix;
    append_frame_prefix(prefix, payload.size());
    return send_pieces(fd, {prefix, payload});
}

void
FrameDecoder::feed(const void* data, std::size_t n)
{
    if (poisoned_)
        return;
    // Compact the consumed prefix before it dominates the buffer.
    if (pos_ > 0 && pos_ >= buffer_.size() / 2) {
        buffer_.erase(0, pos_);
        pos_ = 0;
    }
    buffer_.append(static_cast<const char*>(data), n);
}

FrameDecoder::Status
FrameDecoder::next(std::string& payload, std::string& error)
{
    if (poisoned_) {
        error = "decoder poisoned by an earlier framing error";
        return Status::Error;
    }
    const std::size_t available = buffer_.size() - pos_;
    if (available < 4)
        return Status::NeedMore;
    const unsigned char* p =
        reinterpret_cast<const unsigned char*>(buffer_.data() + pos_);
    const std::uint32_t length = (static_cast<std::uint32_t>(p[0]) << 24) |
                                 (static_cast<std::uint32_t>(p[1]) << 16) |
                                 (static_cast<std::uint32_t>(p[2]) << 8) |
                                 static_cast<std::uint32_t>(p[3]);
    if (length > max_frame_bytes_) {
        poisoned_ = true;
        error = "frame length " + std::to_string(length) +
                " exceeds the " + std::to_string(max_frame_bytes_) +
                "-byte cap";
        return Status::Error;
    }
    if (available - 4 < length)
        return Status::NeedMore;
    payload.assign(buffer_, pos_ + 4, length);
    pos_ += 4 + static_cast<std::size_t>(length);
    return Status::Frame;
}

// ----------------------------------------------------------- requests

namespace {

bool
reject(ErrorKind kind, const std::string& message, ErrorKind& out_kind,
       std::string& out_message)
{
    out_kind = kind;
    out_message = message;
    return false;
}

/** Integer member in [lo, hi]; false + message otherwise. */
bool
take_int(const Json& value, const char* key, std::int64_t lo,
         std::int64_t hi, std::int64_t& out, std::string& message)
{
    if (!value.is_number()) {
        message = std::string(key) + " must be a number";
        return false;
    }
    const std::int64_t v = value.int_value();
    if (static_cast<double>(v) != value.double_value()) {
        message = std::string(key) + " must be an integer";
        return false;
    }
    if (v < lo || v > hi) {
        message = std::string(key) + " out of range [" +
                  std::to_string(lo) + ", " + std::to_string(hi) + "]";
        return false;
    }
    out = v;
    return true;
}

bool
take_double(const Json& value, const char* key, double lo, double hi,
            double& out, std::string& message)
{
    if (!value.is_number()) {
        message = std::string(key) + " must be a number";
        return false;
    }
    const double v = value.double_value();
    if (!(v >= lo && v <= hi)) {
        message = std::string(key) + " out of range";
        return false;
    }
    out = v;
    return true;
}

constexpr std::int32_t kMaxProblemVertices = 1 << 20;
constexpr std::size_t kMaxProblemEdges = 1u << 22;

bool
parse_problem(const Json& problem, Request& out, std::string& message)
{
    std::int64_t v = 0;
    for (const auto& [key, value] : problem.members()) {
        if (key == "n") {
            if (!take_int(value, "problem.n", 1, kMaxProblemVertices, v,
                          message))
                return false;
            out.problem_n = static_cast<std::int32_t>(v);
        } else if (key == "edges") {
            if (!value.is_array()) {
                message = "problem.edges must be an array";
                return false;
            }
            if (value.array().size() > kMaxProblemEdges) {
                message = "problem.edges larger than the protocol cap";
                return false;
            }
            out.has_edges = true;
            out.edges.clear();
            out.edges.reserve(value.array().size());
            for (const Json& edge : value.array()) {
                if (!edge.is_array() || edge.array().size() != 2) {
                    message = "problem.edges entries must be [u, v]";
                    return false;
                }
                std::int64_t u = 0, w = 0;
                if (!take_int(edge.array()[0], "edge endpoint", 0,
                              kMaxProblemVertices - 1, u, message) ||
                    !take_int(edge.array()[1], "edge endpoint", 0,
                              kMaxProblemVertices - 1, w, message))
                    return false;
                out.edges.push_back(
                    {static_cast<std::int32_t>(u),
                     static_cast<std::int32_t>(w)});
            }
        } else if (key == "density") {
            if (!take_double(value, "problem.density", 0.0, 1.0,
                             out.density, message))
                return false;
        } else if (key == "seed") {
            if (!take_int(value, "problem.seed", 0,
                          std::numeric_limits<std::int64_t>::max(), v,
                          message))
                return false;
            out.seed = static_cast<std::uint64_t>(v);
        } else {
            message = "unknown problem key \"" + key + "\"";
            return false;
        }
    }
    if (out.problem_n <= 0) {
        message = "problem.n is required";
        return false;
    }
    if (out.has_edges) {
        for (const auto& edge : out.edges) {
            if (edge.a >= out.problem_n || edge.b >= out.problem_n) {
                message = "problem edge endpoint exceeds problem.n";
                return false;
            }
        }
    } else if (const std::int64_t m =
                   problem::random_graph_edges(out.problem_n,
                                               out.density);
               m > static_cast<std::int64_t>(kMaxProblemEdges)) {
        message = "the random problem draws " + std::to_string(m) +
                  " edges, more than the protocol cap of " +
                  std::to_string(kMaxProblemEdges);
        return false;
    }
    return true;
}

bool
parse_options(const Json& options, Request& out, std::string& message)
{
    std::int64_t v = 0;
    for (const auto& [key, value] : options.members()) {
        if (key == "tier") {
            if (!value.is_string()) {
                message = "options.tier must be a string";
                return false;
            }
            const std::string& tier = value.string_value();
            if (tier != "fast" && tier != "balanced" && tier != "best" &&
                tier != "auto") {
                message = "options.tier must be "
                          "fast|balanced|best|auto";
                return false;
            }
            out.tier = tier;
        } else if (key == "alpha") {
            if (!take_double(value, "options.alpha", 0.0, 1.0, out.alpha,
                             message))
                return false;
        } else if (key == "crosstalk") {
            if (!value.is_bool()) {
                message = "options.crosstalk must be a bool";
                return false;
            }
            out.crosstalk = value.bool_value();
        } else if (key == "shard") {
            if (!take_int(value, "options.shard", 0, 1 << 16, v, message))
                return false;
            out.shard = static_cast<std::int32_t>(v);
        } else if (key == "shard_margin") {
            if (!take_int(value, "options.shard_margin", 0, 1 << 16, v,
                          message))
                return false;
            out.shard_margin = static_cast<std::int32_t>(v);
        } else if (key == "full_qaoa") {
            if (!value.is_bool()) {
                message = "options.full_qaoa must be a bool";
                return false;
            }
            out.full_qaoa = value.bool_value();
        } else {
            message = "unknown options key \"" + key + "\"";
            return false;
        }
    }
    return true;
}

} // namespace

bool
parse_request(const std::string& payload, Request& out, ErrorKind& kind,
              std::string& message)
{
    std::string json_error;
    const auto doc = Json::parse(payload, &json_error);
    if (!doc)
        return reject(ErrorKind::BadJson, json_error, kind, message);
    if (!doc->is_object())
        return reject(ErrorKind::BadJson,
                      "request payload must be a JSON object", kind,
                      message);

    const Json* version = doc->find("v");
    if (version == nullptr || !version->is_number())
        return reject(ErrorKind::BadVersion,
                      "missing protocol version field \"v\"", kind,
                      message);
    if (version->int_value() != kProtocolVersion ||
        static_cast<double>(version->int_value()) !=
            version->double_value())
        return reject(ErrorKind::BadVersion,
                      "unsupported protocol version (want " +
                          std::to_string(kProtocolVersion) + ")",
                      kind, message);

    out = Request{};
    std::string field_error;
    for (const auto& [key, value] : doc->members()) {
        if (key == "v")
            continue;
        if (key == "id") {
            std::int64_t id = 0;
            if (!take_int(value, "id", 0,
                          std::numeric_limits<std::int64_t>::max(), id,
                          field_error))
                return reject(ErrorKind::BadRequest, field_error, kind,
                              message);
            out.id = id;
        } else if (key == "type") {
            if (!value.is_string())
                return reject(ErrorKind::BadRequest,
                              "type must be a string", kind, message);
            out.type = value.string_value();
        } else if (key == "arch") {
            if (!value.is_string())
                return reject(ErrorKind::BadRequest,
                              "arch must be a string", kind, message);
            out.arch = value.string_value();
            const auto& names = arch::named_devices();
            if (std::find(names.begin(), names.end(), out.arch) ==
                names.end())
                return reject(ErrorKind::BadRequest,
                              "unknown arch \"" + out.arch + "\"", kind,
                              message);
        } else if (key == "problem") {
            if (!value.is_object())
                return reject(ErrorKind::BadRequest,
                              "problem must be an object", kind, message);
            if (!parse_problem(value, out, field_error))
                return reject(ErrorKind::BadRequest, field_error, kind,
                              message);
        } else if (key == "options") {
            if (!value.is_object())
                return reject(ErrorKind::BadRequest,
                              "options must be an object", kind, message);
            if (!parse_options(value, out, field_error))
                return reject(ErrorKind::BadRequest, field_error, kind,
                              message);
        } else {
            return reject(ErrorKind::BadRequest,
                          "unknown request key \"" + key + "\"", kind,
                          message);
        }
    }

    if (out.type != "compile" && out.type != "ping" &&
        out.type != "metrics" && out.type != "shutdown")
        return reject(ErrorKind::BadRequest,
                      "unknown request type \"" + out.type + "\"", kind,
                      message);
    if (out.type == "compile" && out.problem_n <= 0 && !out.has_edges) {
        // No explicit problem block: accept the implicit random spec
        // (permuqc defaults), but require it to have been spelled out.
        return reject(ErrorKind::BadRequest,
                      "compile requests need a problem object", kind,
                      message);
    }
    return true;
}

std::string
build_request_payload(const Request& request)
{
    char buf[64];
    std::string payload = "{\"v\":" + std::to_string(kProtocolVersion) +
                          ",\"id\":" + std::to_string(request.id) +
                          ",\"type\":\"";
    append_json_escaped(payload, request.type);
    payload += '"';
    if (request.type == "compile") {
        payload += ",\"arch\":\"";
        append_json_escaped(payload, request.arch);
        payload += '"';
        payload += ",\"problem\":{\"n\":" +
                   std::to_string(request.problem_n);
        if (request.has_edges) {
            payload += ",\"edges\":[";
            for (std::size_t i = 0; i < request.edges.size(); ++i) {
                if (i > 0)
                    payload += ',';
                payload += '[' + std::to_string(request.edges[i].a) +
                           ',' + std::to_string(request.edges[i].b) + ']';
            }
            payload += ']';
        } else {
            std::snprintf(buf, sizeof buf, "%.17g", request.density);
            payload += ",\"density\":";
            payload += buf;
            payload += ",\"seed\":" + std::to_string(request.seed);
        }
        payload += '}';
        std::snprintf(buf, sizeof buf, "%.17g", request.alpha);
        payload += ",\"options\":{\"tier\":\"" + request.tier +
                   "\",\"alpha\":";
        payload += buf;
        payload += ",\"crosstalk\":";
        payload += request.crosstalk ? "true" : "false";
        payload += ",\"shard\":" + std::to_string(request.shard) +
                   ",\"shard_margin\":" +
                   std::to_string(request.shard_margin) +
                   ",\"full_qaoa\":";
        payload += request.full_qaoa ? "true" : "false";
        payload += '}';
    }
    payload += '}';
    return payload;
}

// ---------------------------------------------------------- responses

namespace {

/** The fragment's members before the QASM text, through the quote
 *  that opens it. */
std::string
fragment_head(const PlanSummary& summary)
{
    std::string head = "\"tier\":\"";
    append_json_escaped(head, summary.tier);
    head += "\",\"selected\":\"";
    append_json_escaped(head, summary.selected);
    head += "\",\"depth\":" + std::to_string(summary.depth) +
            ",\"cx\":" + std::to_string(summary.cx) +
            ",\"swaps\":" + std::to_string(summary.swaps) + ",\"qasm\":\"";
    return head;
}

/** The fragment's members after the QASM text, from the quote that
 *  closes it. */
std::string
fragment_tail(const std::string& report_json)
{
    return "\",\"report\":" +
           (report_json.empty() ? std::string("{}") : report_json);
}

void
require_escaped(const circuit::QasmProgram& qasm)
{
    panic_unless(qasm.encoder() == &append_json_escaped,
                 "a plan fragment embeds JSON-escaped QASM");
}

/** A result payload up to its fragment: the per-request envelope. */
std::string
result_envelope(std::int64_t id, bool cached, double queue_ms,
                double compile_ms)
{
    char buf[64];
    std::string envelope = "{\"v\":" + std::to_string(kProtocolVersion) +
                           ",\"id\":" + std::to_string(id) +
                           ",\"type\":\"result\",\"cached\":";
    envelope += cached ? "true" : "false";
    std::snprintf(buf, sizeof buf, "%.3f", queue_ms);
    envelope += ",\"queue_ms\":";
    envelope += buf;
    std::snprintf(buf, sizeof buf, "%.3f", compile_ms);
    envelope += ",\"compile_ms\":";
    envelope += buf;
    envelope += ',';
    return envelope;
}

} // namespace

std::string
build_plan_fragment(const PlanSummary& summary, const std::string& qasm,
                    const std::string& report_json)
{
    const std::string head = fragment_head(summary);
    const std::string tail = fragment_tail(report_json);
    std::string fragment;
    fragment.reserve(head.size() + common::json_escaped_size(qasm) +
                     tail.size());
    fragment += head;
    append_json_escaped(fragment, qasm);
    fragment += tail;
    return fragment;
}

std::size_t
plan_fragment_size(const PlanSummary& summary,
                   const circuit::QasmProgram& qasm,
                   const std::string& report_json)
{
    require_escaped(qasm);
    return fragment_head(summary).size() + qasm.size() +
           fragment_tail(report_json).size();
}

std::string
build_plan_fragment(const PlanSummary& summary,
                    const circuit::QasmProgram& qasm,
                    const std::string& report_json)
{
    require_escaped(qasm);
    const std::string head = fragment_head(summary);
    const std::string tail = fragment_tail(report_json);
    const std::size_t size = head.size() + qasm.size() + tail.size();
    std::string fragment;
    fragment.reserve(size);
    fragment += head;
    qasm.write(
        [&fragment](std::string_view block) { fragment.append(block); });
    fragment += tail;
    panic_unless(fragment.size() == size,
                 "plan fragment size differs from its prediction");
    return fragment;
}

std::string
build_result_payload(std::int64_t id, bool cached, double queue_ms,
                     double compile_ms, const std::string& fragment)
{
    std::string payload = result_envelope(id, cached, queue_ms, compile_ms);
    payload.reserve(payload.size() + fragment.size() + 1);
    payload += fragment;
    payload += '}';
    return payload;
}

bool
send_result_frame(int fd, std::int64_t id, bool cached, double queue_ms,
                  double compile_ms, const std::string& fragment)
{
    const std::string envelope =
        result_envelope(id, cached, queue_ms, compile_ms);
    std::string head;
    head.reserve(4 + envelope.size());
    append_frame_prefix(head, envelope.size() + fragment.size() + 1);
    head += envelope;
    return send_pieces(fd, {head, fragment, "}"});
}

std::string
build_error_payload(std::int64_t id, ErrorKind kind,
                    const std::string& message)
{
    std::string payload = "{\"v\":" + std::to_string(kProtocolVersion) +
                          ",\"id\":" + std::to_string(id) +
                          ",\"type\":\"error\",\"error\":\"" +
                          to_string(kind) + "\",\"message\":\"";
    append_json_escaped(payload, message);
    payload += "\"}";
    return payload;
}

std::string
build_pong_payload(std::int64_t id)
{
    return "{\"v\":" + std::to_string(kProtocolVersion) +
           ",\"id\":" + std::to_string(id) + ",\"type\":\"pong\"}";
}

std::string
build_ok_payload(std::int64_t id)
{
    return "{\"v\":" + std::to_string(kProtocolVersion) +
           ",\"id\":" + std::to_string(id) + ",\"type\":\"ok\"}";
}

std::string
build_metrics_payload(std::int64_t id, const std::string& prometheus_text)
{
    std::string payload = "{\"v\":" + std::to_string(kProtocolVersion) +
                          ",\"id\":" + std::to_string(id) +
                          ",\"type\":\"metrics\",\"prom\":\"";
    append_json_escaped(payload, prometheus_text);
    payload += "\"}";
    return payload;
}

bool
parse_response(const std::string& payload, Response& out,
               std::string& error)
{
    const auto doc = Json::parse(payload, &error);
    if (!doc)
        return false;
    if (!doc->is_object()) {
        error = "response payload must be a JSON object";
        return false;
    }
    const Json* version = doc->find("v");
    if (version == nullptr || !version->is_number() ||
        version->int_value() != kProtocolVersion) {
        error = "missing or unsupported response version";
        return false;
    }
    out = Response{};
    const Json* id = doc->find("id");
    if (id == nullptr || !id->is_number()) {
        error = "missing response id";
        return false;
    }
    out.id = id->int_value();
    const Json* type = doc->find("type");
    if (type == nullptr || !type->is_string()) {
        error = "missing response type";
        return false;
    }
    out.type = type->string_value();

    if (out.type == "error") {
        const Json* kind = doc->find("error");
        const Json* message = doc->find("message");
        if (kind == nullptr || !kind->is_string() ||
            !parse_error_kind(kind->string_value(), out.error)) {
            error = "error frame lacks a typed error kind";
            return false;
        }
        if (message != nullptr && message->is_string())
            out.message = message->string_value();
        return true;
    }
    if (out.type == "pong" || out.type == "ok")
        return true;
    if (out.type == "metrics") {
        const Json* prom = doc->find("prom");
        if (prom == nullptr || !prom->is_string()) {
            error = "metrics frame lacks the prom field";
            return false;
        }
        out.prometheus = prom->string_value();
        return true;
    }
    if (out.type != "result") {
        error = "unknown response type \"" + out.type + "\"";
        return false;
    }

    const Json* cached = doc->find("cached");
    if (cached != nullptr && cached->is_bool())
        out.cached = cached->bool_value();
    if (const Json* v = doc->find("queue_ms"); v && v->is_number())
        out.queue_ms = v->double_value();
    if (const Json* v = doc->find("compile_ms"); v && v->is_number())
        out.compile_ms = v->double_value();
    if (const Json* v = doc->find("tier"); v && v->is_string())
        out.plan.tier = v->string_value();
    if (const Json* v = doc->find("selected"); v && v->is_string())
        out.plan.selected = v->string_value();
    if (const Json* v = doc->find("depth"); v && v->is_number())
        out.plan.depth = v->int_value();
    if (const Json* v = doc->find("cx"); v && v->is_number())
        out.plan.cx = v->int_value();
    if (const Json* v = doc->find("swaps"); v && v->is_number())
        out.plan.swaps = v->int_value();
    if (const Json* v = doc->find("qasm"); v && v->is_string())
        out.qasm = v->string_value();

    // Recover the raw plan fragment (cache-identity tests compare it
    // byte for byte): everything from the "tier" key to the payload's
    // closing brace. The envelope has a fixed key order with no string
    // values before the fragment, so the first occurrence is it.
    const std::size_t start = payload.find("\"tier\":");
    if (start != std::string::npos && payload.size() > start + 1)
        out.fragment = payload.substr(start, payload.size() - 1 - start);

    // Keep the raw report JSON (it is the fragment's last member).
    const std::size_t report = out.fragment.find("\"report\":");
    if (report != std::string::npos)
        out.report_json =
            out.fragment.substr(report + std::strlen("\"report\":"));
    return true;
}

} // namespace permuq::service
