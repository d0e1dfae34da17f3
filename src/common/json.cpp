#include "common/json.h"

#include <array>
#include <cstring>

namespace permuq::common {

namespace {

/** Bytes a JSON string literal spends on each byte value. */
constexpr std::array<unsigned char, 256> kWidth = [] {
    std::array<unsigned char, 256> width{};
    for (std::size_t c = 0; c < width.size(); ++c)
        width[c] = c < 0x20 ? 6 : 1;
    for (const unsigned char c : {'"', '\\', '\n', '\r', '\t'})
        width[c] = 2;
    return width;
}();

} // namespace

void
append_json_escaped(std::string& out, std::string_view raw)
{
    static constexpr char kHex[] = "0123456789abcdef";
    if (raw.empty())
        return;
    const std::size_t at = out.size();
    out.resize(at + json_escaped_size(raw));
    char* dst = out.data() + at;
    const char* run = raw.data();
    const char* const end = run + raw.size();
    for (const char* p = run; p != end; ++p) {
        const auto c = static_cast<unsigned char>(*p);
        if (kWidth[c] == 1)
            continue;
        std::memcpy(dst, run, static_cast<std::size_t>(p - run));
        dst += p - run;
        run = p + 1;
        *dst++ = '\\';
        switch (c) {
        case '"':
        case '\\':
            *dst++ = static_cast<char>(c);
            break;
        case '\n':
            *dst++ = 'n';
            break;
        case '\r':
            *dst++ = 'r';
            break;
        case '\t':
            *dst++ = 't';
            break;
        default:
            for (const char ch : {'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]})
                *dst++ = ch;
        }
    }
    std::memcpy(dst, run, static_cast<std::size_t>(end - run));
}

std::size_t
json_escaped_size(std::string_view raw)
{
    std::size_t bytes = 0;
    for (const char ch : raw)
        bytes += kWidth[static_cast<unsigned char>(ch)];
    return bytes;
}

} // namespace permuq::common
