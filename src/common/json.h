/**
 * @file
 * The one JSON string escaper: the service protocol, the telemetry
 * exports and the JSON log format all escape through it. (The flight
 * recorder keeps its own, because it runs in a signal handler and may
 * not allocate.)
 *
 * Escaping works byte by byte, so escape(a + b) == escape(a) +
 * escape(b): '"' and '\\' take a backslash, '\n', '\r' and '\t' their
 * short escapes, every other byte below 0x20 a \u00XX escape, and
 * every other byte (UTF-8 continuation bytes included) passes through.
 */
#ifndef PERMUQ_COMMON_JSON_H
#define PERMUQ_COMMON_JSON_H

#include <cstddef>
#include <string>
#include <string_view>

namespace permuq::common {

/**
 * Append @p raw to @p out, escaped for the inside of a JSON string
 * literal. Runs of plain bytes are copied in bulk.
 */
void append_json_escaped(std::string& out, std::string_view raw);

/** Bytes append_json_escaped(out, @p raw) adds to out. */
std::size_t json_escaped_size(std::string_view raw);

} // namespace permuq::common

#endif // PERMUQ_COMMON_JSON_H
