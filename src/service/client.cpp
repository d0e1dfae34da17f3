#include "service/client.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace permuq::service {

bool
Client::connect(int port, std::string& error)
{
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
        error = std::string("connect: ") + std::strerror(errno);
        ::close(fd_);
        fd_ = -1;
        return false;
    }
    decoder_ = FrameDecoder();
    return true;
}

bool
Client::send(const Request& request, std::string& error)
{
    return send_raw(encode_frame(build_request_payload(request)),
                    error);
}

bool
Client::send_raw(const std::string& bytes, std::string& error)
{
    if (fd_ < 0) {
        error = "not connected";
        return false;
    }
    if (!send_pieces(fd_, {bytes})) {
        error = std::string("send: ") + std::strerror(errno);
        return false;
    }
    return true;
}

bool
Client::receive(Response& out, std::string& error)
{
    if (fd_ < 0) {
        error = "not connected";
        return false;
    }
    char buf[64 * 1024];
    for (;;) {
        std::string payload;
        const auto status = decoder_.next(payload, error);
        if (status == FrameDecoder::Status::Error)
            return false;
        if (status == FrameDecoder::Status::Frame)
            return parse_response(payload, out, error);
        const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0) {
            error = std::string("recv: ") + std::strerror(errno);
            return false;
        }
        if (n == 0) {
            error = decoder_.buffered_bytes() > 0
                        ? "connection closed mid-frame"
                        : "connection closed";
            return false;
        }
        decoder_.feed(buf, static_cast<std::size_t>(n));
    }
}

bool
Client::call(const Request& request, Response& out, std::string& error)
{
    if (!send(request, error))
        return false;
    if (!receive(out, error))
        return false;
    if (out.id != request.id) {
        error = "response id " + std::to_string(out.id) +
                " does not match request id " +
                std::to_string(request.id);
        return false;
    }
    return true;
}

void
Client::shutdown_write()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_WR);
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

} // namespace permuq::service
