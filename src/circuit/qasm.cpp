#include "qasm.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <memory>
#include <sstream>

#include "circuit/metrics.h"
#include "common/error.h"

namespace permuq::circuit {

namespace {

/** Longest qubit id in text: "-2147483648". */
constexpr std::size_t kIdBytes = 11;

/** Bytes a full block holds before it goes to the sink. */
constexpr std::size_t kBlockBytes = 64 * 1024;

/**
 * Tokens and ids up to this long are copied as one fixed-size block,
 * which compiles to a few register moves instead of a memcpy call;
 * the block keeps this much slack past its capacity for the overhang.
 */
constexpr std::size_t kPieceBytes = 32;

/** @p angle exactly as a default-formatted std::ostream prints it. */
std::string
angle_text(double angle)
{
    std::ostringstream out;
    out << angle;
    return out.str();
}

/** A fixed piece of program text, encoded once per writer. */
struct Token
{
    explicit Token(std::string encoded) : text(std::move(encoded))
    {
        std::memcpy(piece, text.data(), std::min(text.size(), kPieceBytes));
    }

    std::string text;
    char piece[kPieceBytes] = {};
};

/** The program's fixed text. */
struct Tokens
{
    Tokens(const QasmOptions& options, QasmEncoder encoder)
        : header(encode(encoder,
                        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[")),
          creg(encode(encoder, "creg c[")), h(encode(encoder, "h q[")),
          cx(encode(encoder, "cx q[")), comma(encode(encoder, "],q[")),
          end(encode(encoder, "];\n")),
          rz(encode(encoder,
                    "rz(" + angle_text(2.0 * options.gamma) + ") q[")),
          rx(encode(encoder,
                    "rx(" + angle_text(2.0 * options.beta) + ") q[")),
          measure(encode(encoder, "measure q[")),
          arrow(encode(encoder, "] -> c["))
    {
        panic_unless(encode(encoder, "-0123456789").text == "-0123456789",
                     "a QASM encoder must leave digits unchanged");
        const std::size_t line = end.text.size() + kIdBytes;
        const std::size_t cx_line =
            cx.text.size() + comma.text.size() + kIdBytes + line;
        max_step = std::max(
            {3 * cx_line + rz.text.size() + line,
             header.text.size() + line, creg.text.size() + line,
             h.text.size() + line, rx.text.size() + line,
             measure.text.size() + arrow.text.size() + kIdBytes + line});
    }

    static Token
    encode(QasmEncoder encoder, const std::string& raw)
    {
        if (encoder == nullptr)
            return Token(raw);
        std::string out;
        encoder(out, raw);
        return Token(std::move(out));
    }

    Token header, creg, h, cx, comma, end, rz, rx, measure, arrow;
    /** Most bytes one op or one mapping line can write. */
    std::size_t max_step = 0;
};

/** Counts the bytes a BlockOut would write. */
struct Counter
{
    /** A qubit id, as the width of its decimal text. */
    struct Id
    {
        explicit Id(std::int32_t v)
        {
            std::uint32_t magnitude =
                v < 0 ? 0u - static_cast<std::uint32_t>(v)
                      : static_cast<std::uint32_t>(v);
            size = v < 0 ? 2 : 1;
            for (; magnitude >= 10; magnitude /= 10)
                ++size;
        }

        std::size_t size;
    };

    void reserve(std::size_t) {}
    void put(const Token& token) { bytes += token.text.size(); }
    void put(const Id& id) { bytes += id.size; }

    std::size_t bytes = 0;
};

/** Fills a block and hands it to the sink whenever the next step might
 *  not fit. */
class BlockOut
{
  public:
    /** A qubit id, formatted once for every line that names it. */
    struct Id
    {
        explicit Id(std::int32_t v)
            : size(static_cast<std::size_t>(
                  std::to_chars(text, text + sizeof text, v).ptr - text))
        {
        }

        char text[16];
        std::size_t size;
    };

    BlockOut(const QasmSink& sink, std::size_t capacity)
        : sink_(sink), block_(new char[capacity + kPieceBytes]),
          pos_(block_.get()), end_(block_.get() + capacity)
    {
    }

    void
    reserve(std::size_t bytes)
    {
        if (static_cast<std::size_t>(end_ - pos_) < bytes)
            flush();
    }

    void
    put(const Token& token)
    {
        const std::size_t size = token.text.size();
        if (size <= kPieceBytes)
            std::memcpy(pos_, token.piece, kPieceBytes);
        else
            std::memcpy(pos_, token.text.data(), size);
        pos_ += size;
    }

    void
    put(const Id& id)
    {
        std::memcpy(pos_, id.text, sizeof id.text);
        pos_ += id.size;
    }

    void
    flush()
    {
        if (pos_ != block_.get())
            sink_(std::string_view(
                block_.get(), static_cast<std::size_t>(pos_ - block_.get())));
        pos_ = block_.get();
    }

  private:
    const QasmSink& sink_;
    std::unique_ptr<char[]> block_;
    char* pos_;
    char* end_;
};

/** One line naming one qubit: @p token, @p qubit, "];". */
template <class Out>
void
emit_line(Out& out, const Tokens& t, const Token& token,
          std::int32_t qubit)
{
    out.reserve(t.max_step);
    out.put(token);
    out.put(typename Out::Id(qubit));
    out.put(t.end);
}

template <class Out>
void
emit_header(Out& out, const Tokens& t, const Mapping& initial,
            bool full_qaoa)
{
    emit_line(out, t, t.header, initial.num_physical());
    if (!full_qaoa)
        return;
    emit_line(out, t, t.creg, initial.num_logical());
    // Initial |+> on every position holding a program qubit.
    for (std::int32_t l = 0; l < initial.num_logical(); ++l)
        emit_line(out, t, t.h, initial.physical_of(l));
}

template <class Out>
void
emit_cx(Out& out, const Tokens& t, const typename Out::Id& a,
        const typename Out::Id& b)
{
    out.put(t.cx);
    out.put(a);
    out.put(t.comma);
    out.put(b);
    out.put(t.end);
}

/**
 * How each op of @p circ is written: as itself, or, when
 * @p merge_pairs, a compute and a swap on one pair as one Merged step
 * whose partner is skipped. A template because Step is private to
 * QasmProgram.
 */
template <class Step>
std::vector<Step>
lower(const Circuit& circ, bool merge_pairs)
{
    const auto& ops = circ.ops();
    std::vector<Step> steps;
    steps.reserve(ops.size());
    for (const ScheduledOp& op : ops)
        steps.push_back(op.kind == OpKind::Compute ? Step::Compute
                                                   : Step::Swap);
    if (!merge_pairs)
        return steps;
    const auto partner = merge_partner(circ);
    for (std::size_t i = 0; i < steps.size(); ++i) {
        if (steps[i] == Step::Skip || partner[i] < 0)
            continue;
        steps[i] = Step::Merged;
        steps[static_cast<std::size_t>(partner[i])] = Step::Skip;
    }
    return steps;
}

template <class Out, class Step>
void
emit_ops(Out& out, const Tokens& t, const Circuit& circ,
         const std::vector<Step>& steps)
{
    std::size_t i = 0;
    for (const ScheduledOp& op : circ.ops()) {
        const Step step = steps[i++];
        if (step == Step::Skip)
            continue;
        const typename Out::Id p(op.p);
        const typename Out::Id q(op.q);
        out.reserve(t.max_step);
        emit_cx(out, t, p, q);
        if (step != Step::Swap) {
            out.put(t.rz);
            out.put(q);
            out.put(t.end);
        }
        // Merged ZZ+SWAP (either order; the two commute):
        //   SWAP*RZZ(t) = CX(a,b) CX(b,a) RZ_b(t) CX(a,b),
        // i.e. in circuit order cx; rz; cx reversed; cx.
        if (step != Step::Compute)
            emit_cx(out, t, q, p);
        emit_cx(out, t, p, q);
    }
}

template <class Out>
void
emit_footer(Out& out, const Tokens& t, const Mapping& final_mapping,
            bool full_qaoa)
{
    if (!full_qaoa)
        return;
    for (std::int32_t l = 0; l < final_mapping.num_logical(); ++l)
        emit_line(out, t, t.rx, final_mapping.physical_of(l));
    for (std::int32_t l = 0; l < final_mapping.num_logical(); ++l) {
        out.reserve(t.max_step);
        out.put(t.measure);
        out.put(typename Out::Id(final_mapping.physical_of(l)));
        out.put(t.arrow);
        out.put(typename Out::Id(l));
        out.put(t.end);
    }
}

} // namespace

enum class QasmProgram::Step : std::uint8_t
{
    Skip, ///< merged into an earlier op
    Compute,
    Swap,
    Merged, ///< a compute and a swap on one pair, as 3 CX
};

QasmProgram::QasmProgram(const Circuit& circ, const QasmOptions& options,
                         QasmEncoder encoder)
    : circ_(circ), options_(options), encoder_(encoder),
      steps_(lower<Step>(circ, options.merge_pairs))
{
    const Tokens tokens(options, encoder);
    Counter count;
    emit_header(count, tokens, circ.initial_mapping(), options.full_qaoa);
    emit_ops(count, tokens, circ, steps_);
    emit_footer(count, tokens, circ.final_mapping(), options.full_qaoa);
    size_ = count.bytes;
}

void
QasmProgram::write(const QasmSink& sink) const
{
    const Tokens tokens(options_, encoder_);
    BlockOut out(sink, std::max(kBlockBytes, tokens.max_step));
    emit_header(out, tokens, circ_.initial_mapping(), options_.full_qaoa);
    emit_ops(out, tokens, circ_, steps_);
    emit_footer(out, tokens, circ_.final_mapping(), options_.full_qaoa);
    out.flush();
}

std::string
to_qasm(const Circuit& circ, const QasmOptions& options)
{
    const QasmProgram program(circ, options);
    std::string text;
    text.reserve(program.size());
    program.write([&text](std::string_view block) { text.append(block); });
    return text;
}

std::string
to_diagram(const Circuit& circ)
{
    std::int32_t n = circ.initial_mapping().num_physical();
    Cycle depth = circ.depth();
    fatal_unless(n <= 64 && depth <= 256,
                 "diagram limited to 64 qubits x 256 cycles");
    // grid[q][cycle] = 3-char cell.
    std::vector<std::vector<std::string>> grid(
        static_cast<std::size_t>(n),
        std::vector<std::string>(static_cast<std::size_t>(depth), "---"));
    for (const auto& op : circ.ops()) {
        const char* mark = op.kind == OpKind::Compute ? "-o-" : "-x-";
        grid[static_cast<std::size_t>(op.p)][static_cast<std::size_t>(
            op.cycle)] = mark;
        grid[static_cast<std::size_t>(op.q)][static_cast<std::size_t>(
            op.cycle)] = mark;
    }
    std::ostringstream out;
    for (std::int32_t q = 0; q < n; ++q) {
        out << "q" << q << (q < 10 ? " " : "") << " ";
        for (Cycle c = 0; c < depth; ++c)
            out << grid[static_cast<std::size_t>(q)][static_cast<
                std::size_t>(c)];
        out << "\n";
    }
    return out.str();
}

} // namespace permuq::circuit
