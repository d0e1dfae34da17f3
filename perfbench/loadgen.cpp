/**
 * @file
 * perfbench-loadgen: the benchmark's load generator for permuqd.
 *
 * Speaks the wire protocol from its specification (4-byte big-endian
 * length + JSON payload) and links nothing of PermuQ, so the measured
 * numbers depend only on permuqd's flags and on the protocol.
 *
 *   perfbench-loadgen open PORT CONNECTIONS SCHEDULE OUTDIR
 *       Open loop: each request is sent at its due time (offset from
 *       the start) on its connection by one sender thread, whatever
 *       the replies are doing; one receiver thread per connection.
 *
 *   perfbench-loadgen closed PORT SCHEDULE OUTDIR SECONDS MIN BLOCK WINDOW
 *       Closed loop on one connection: at most WINDOW requests in
 *       flight; no new request starts once SECONDS have passed, at
 *       least MIN requests were sent and the count sent is a multiple
 *       of BLOCK (so a run ends on a whole cycle of the schedule).
 *
 * SCHEDULE holds records of u64 id, u64 due offset (ns), u32
 * connection, u32 length and the request payload, all big-endian.
 * Output in OUTDIR: conn<k>.spool (reply payloads, appended as
 * received), sent.tsv ("id due_ns sent_ns") and recv.tsv ("id conn
 * arrival_ns offset size crc"). Of a cached result only the envelope
 * (up to the comma after compile_ms) is spooled, and crc is the CRC-32
 * of the rest, its plan fragment, which the benchmark compares with
 * the cold reply it replays; other replies are spooled whole, crc -1.
 * Times are CLOCK_MONOTONIC nanoseconds.
 */
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

/** How long before a due time the open-loop sender stops sleeping. */
constexpr std::int64_t kSpinNs = 300000;

std::int64_t
now_ns()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return std::int64_t(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::uint64_t
get_be(const unsigned char* p, int bytes)
{
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
        v = (v << 8) | p[i];
    return v;
}

struct Request
{
    std::int64_t id = 0;
    std::int64_t due_ns = 0;
    std::uint32_t conn = 0;
    std::string frame; ///< length prefix + payload
};

std::vector<Request>
read_schedule(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::vector<Request> out;
    unsigned char head[24];
    while (in.read(reinterpret_cast<char*>(head), sizeof head)) {
        Request r;
        r.id = static_cast<std::int64_t>(get_be(head, 8));
        r.due_ns = static_cast<std::int64_t>(get_be(head + 8, 8));
        r.conn = static_cast<std::uint32_t>(get_be(head + 16, 4));
        const std::size_t n = get_be(head + 20, 4);
        r.frame.assign(4 + n, '\0');
        std::memcpy(r.frame.data(), head + 20, 4);
        if (!in.read(r.frame.data() + 4, static_cast<std::streamsize>(n)))
            throw std::runtime_error("truncated schedule");
        out.push_back(std::move(r));
    }
    return out;
}

int
connect_to(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        throw std::runtime_error("connect failed");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

void
send_all(int fd, const std::string& bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                                 MSG_NOSIGNAL);
        if (n <= 0)
            throw std::runtime_error("send failed");
        off += static_cast<std::size_t>(n);
    }
}

/** CRC-32 (IEEE, as zlib computes it) of @p n bytes at @p p. */
std::uint32_t
crc32(const char* p, std::size_t n)
{
    static const auto table = [] {
        std::vector<std::uint32_t> t(256);
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ static_cast<unsigned char>(p[i])) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

/** For a cached result: the envelope's length (up to and including
 *  the comma after compile_ms). 0 for any other reply. */
std::size_t
cached_envelope(const std::string& payload)
{
    const std::string_view head(payload.data(),
                                std::min<std::size_t>(payload.size(), 256));
    const std::size_t at = head.find("\"compile_ms\":");
    if (head.find("\"cached\":true") == head.npos || at == head.npos)
        return 0;
    const std::size_t comma = head.find(',', at);
    if (comma == head.npos || payload.back() != '}')
        return 0;
    return comma + 1;
}

/** The echoed id from the envelope at the front of a reply. */
std::int64_t
reply_id(const std::string& payload)
{
    const std::size_t at = payload.find("\"id\":");
    if (at == std::string::npos || at > 64)
        return -1;
    return std::strtoll(payload.c_str() + at + 5, nullptr, 10);
}

struct Arrival
{
    std::int64_t id = 0;
    std::int64_t arrival_ns = 0;
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    std::int64_t crc = -1;
};

/** One connection: its socket, a spool file and a receiver thread that
 *  stamps every reply frame on arrival. */
class Receiver
{
  public:
    Receiver(int port, const std::string& spool_path)
        : fd_(connect_to(port)), spool_(std::fopen(spool_path.c_str(), "wb"))
    {
        if (!spool_)
            throw std::runtime_error("cannot write " + spool_path);
        thread_ = std::thread([this] { run(); });
    }

    Receiver(const Receiver&) = delete;
    Receiver& operator=(const Receiver&) = delete;

    ~Receiver()
    {
        ::shutdown(fd_, SHUT_RDWR);
        if (thread_.joinable())
            thread_.join();
        ::close(fd_);
        std::fclose(spool_);
    }

    int fd() const { return fd_; }

    /** Block until @p count replies arrived or @p deadline passed. */
    bool wait_for(std::size_t count, Clock::time_point deadline)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        return cv_.wait_until(lock, deadline, [&] {
            return arrivals_.size() >= count || closed_;
        }) && arrivals_.size() >= count;
    }

    std::vector<Arrival> arrivals()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return arrivals_;
    }

  private:
    void run()
    {
        std::string buf;
        std::size_t pos = 0;
        std::uint64_t offset = 0;
        char chunk[1 << 16];
        for (;;) {
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n <= 0)
                break;
            buf.append(chunk, static_cast<std::size_t>(n));
            for (;;) {
                if (buf.size() - pos < 4)
                    break;
                const std::size_t len = get_be(
                    reinterpret_cast<const unsigned char*>(buf.data() + pos),
                    4);
                if (buf.size() - pos - 4 < len)
                    break;
                const std::int64_t arrived = now_ns();
                const std::string payload = buf.substr(pos + 4, len);
                pos += 4 + len;
                Arrival a;
                a.id = reply_id(payload);
                a.arrival_ns = arrived;
                a.offset = offset;
                a.size = payload.size();
                if (const std::size_t envelope = cached_envelope(payload)) {
                    a.size = envelope;
                    a.crc = crc32(payload.data() + envelope,
                                  payload.size() - envelope - 1);
                }
                std::fwrite(payload.data(), 1, a.size, spool_);
                offset += a.size;
                std::lock_guard<std::mutex> lock(mutex_);
                arrivals_.push_back(a);
                cv_.notify_all();
            }
            if (pos > (1u << 20)) {
                buf.erase(0, pos);
                pos = 0;
            }
        }
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
        cv_.notify_all();
    }

    int fd_;
    std::FILE* spool_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Arrival> arrivals_;
    bool closed_ = false;
    std::thread thread_;
};

struct Sent
{
    std::int64_t id = 0;
    std::int64_t due_ns = 0;
    std::int64_t sent_ns = 0;
};

void
write_outputs(const std::string& dir, const std::vector<Sent>& sent,
              std::vector<std::unique_ptr<Receiver>>& receivers)
{
    {
        std::ofstream out(dir + "/sent.tsv");
        for (const Sent& s : sent)
            out << s.id << ' ' << s.due_ns << ' ' << s.sent_ns << '\n';
    }
    std::vector<std::vector<Arrival>> arrivals;
    for (auto& r : receivers)
        arrivals.push_back(r->arrivals());
    receivers.clear(); // joins the threads and flushes the spools
    std::ofstream out(dir + "/recv.tsv");
    for (std::size_t k = 0; k < arrivals.size(); ++k)
        for (const Arrival& a : arrivals[k])
            out << a.id << ' ' << k << ' ' << a.arrival_ns << ' '
                << a.offset << ' ' << a.size << ' ' << a.crc << '\n';
}

int
run_open(int port, std::uint32_t conns, const std::string& schedule_path,
         const std::string& dir)
{
    const auto schedule = read_schedule(schedule_path);
    std::vector<std::unique_ptr<Receiver>> receivers;
    std::vector<std::size_t> expected(conns, 0);
    for (std::uint32_t k = 0; k < conns; ++k)
        receivers.push_back(std::make_unique<Receiver>(
            port, dir + "/conn" + std::to_string(k) + ".spool"));
    for (const Request& r : schedule) {
        if (r.conn >= conns)
            throw std::runtime_error("schedule names a missing connection");
        ++expected[r.conn];
    }
    std::vector<Sent> sent;
    sent.reserve(schedule.size());
    const std::int64_t start = now_ns() + 20000000;
    for (const Request& r : schedule) {
        const std::int64_t due = start + r.due_ns;
        // Sleep to just before the due time, then spin: a plain sleep
        // wakes up a scheduler tick late often enough to show in the
        // latency of requests timed from their due time.
        const std::int64_t wait = due - now_ns() - kSpinNs;
        if (wait > 0)
            std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
        while (now_ns() < due) {
        }
        const std::int64_t at = now_ns();
        send_all(receivers[r.conn]->fd(), r.frame);
        sent.push_back({r.id, due, at});
    }
    const auto deadline = Clock::now() + std::chrono::seconds(120);
    bool complete = true;
    for (std::uint32_t k = 0; k < conns; ++k)
        complete = receivers[k]->wait_for(expected[k], deadline) && complete;
    write_outputs(dir, sent, receivers);
    return complete ? 0 : 3;
}

int
run_closed(int port, const std::string& schedule_path, const std::string& dir,
           double seconds, std::size_t min_count, std::size_t block,
           std::size_t window)
{
    const auto schedule = read_schedule(schedule_path);
    std::vector<std::unique_ptr<Receiver>> receivers;
    receivers.push_back(
        std::make_unique<Receiver>(port, dir + "/conn0.spool"));
    Receiver& conn = *receivers[0];
    std::vector<Sent> sent;
    const auto start = Clock::now();
    const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
    const auto deadline = [] {
        return Clock::now() + std::chrono::seconds(120);
    };
    bool complete = true;
    for (const Request& r : schedule) {
        if (sent.size() >= min_count && sent.size() % block == 0 &&
            Clock::now() >= stop)
            break;
        if (sent.size() >= window &&
            !conn.wait_for(sent.size() - window + 1, deadline())) {
            complete = false;
            break;
        }
        const std::int64_t at = now_ns();
        send_all(conn.fd(), r.frame);
        sent.push_back({r.id, at, at});
    }
    complete = complete && conn.wait_for(sent.size(), deadline());
    write_outputs(dir, sent, receivers);
    return complete ? 0 : 3;
}

} // namespace

int
main(int argc, char** argv)
{
    const std::vector<std::string> a(argv + 1, argv + argc);
    try {
        if (a.size() == 5 && a[0] == "open")
            return run_open(std::stoi(a[1]),
                            static_cast<std::uint32_t>(std::stoul(a[2])),
                            a[3], a[4]);
        if (a.size() == 8 && a[0] == "closed")
            return run_closed(std::stoi(a[1]), a[2], a[3], std::stod(a[4]),
                              std::stoul(a[5]), std::max(1ul, std::stoul(a[6])),
                              std::stoul(a[7]));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench-loadgen: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr,
                 "usage: perfbench-loadgen open PORT CONNECTIONS SCHEDULE "
                 "OUTDIR\n"
                 "       perfbench-loadgen closed PORT SCHEDULE OUTDIR "
                 "SECONDS MIN BLOCK WINDOW\n");
    return 2;
}
