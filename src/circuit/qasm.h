/**
 * @file
 * OpenQASM 2.0 export of compiled circuits, so PermuQ output can be
 * fed to external stacks (Qiskit, simulators, hardware queues).
 *
 * A compiled circuit is an abstract schedule of CPHASE/RZZ and SWAP
 * slots; export lowers it to the CX + single-qubit-rotation basis used
 * throughout the evaluation:
 *   - compute (ZZ-interaction, angle 2*gamma):
 *       cx a,b; rz(2*gamma) b; cx a,b
 *   - swap: cx a,b; cx b,a; cx a,b
 *   - compute immediately followed by swap on the same pair merges to
 *     three CX (the unification the metrics count):
 *       cx a,b; rz(2*gamma) b; cx b,a; cx a,b
 * Optionally a full QAOA program is emitted: initial Hadamards, the
 * phase separator (the compiled circuit), and the RX mixer.
 */
#ifndef PERMUQ_CIRCUIT_QASM_H
#define PERMUQ_CIRCUIT_QASM_H

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/circuit.h"

namespace permuq::circuit {

/** Options controlling QASM emission. */
struct QasmOptions
{
    /** ZZ-interaction angle (QAOA gamma); every compute op uses it. */
    double gamma = 0.5;
    /** Emit the full QAOA layer: H column, phase separator, RX mixer
     *  with this beta, and measurements of the logical qubits. */
    bool full_qaoa = false;
    double beta = 0.4;
    /** Apply the CPHASE+SWAP merging when lowering. */
    bool merge_pairs = true;
};

/** Receives program text in order, one block at a time. */
using QasmSink = std::function<void(std::string_view block)>;

/**
 * Re-encodes program text on its way out, for example escaping it for
 * a JSON string: appends the encoding of @p text to @p out. It must
 * work byte by byte (encode(a + b) == encode(a) + encode(b)) and leave
 * digits and '-' unchanged, because the writer encodes each fixed token
 * and each angle once, when it is built, and writes qubit ids as they
 * are.
 */
using QasmEncoder = void (*)(std::string& out, std::string_view text);

/** Serialize @p circ as an OpenQASM 2.0 program. */
std::string to_qasm(const Circuit& circ, const QasmOptions& options = {});

/**
 * The one QASM writer: the whole program of one circuit, lowered once,
 * so its exact size is known before a byte is written — callers size
 * their buffer or refuse an oversized result up front. Text is
 * formatted into fixed-size blocks and handed to a sink a block at a
 * time: qubit ids are formatted by hand, and each angle once, exactly
 * as a default std::ostream prints it. to_qasm(), permuqc --qasm and
 * the compile service's plan fragments all write through it.
 */
class QasmProgram
{
  public:
    /** @p circ must outlive the program. */
    explicit QasmProgram(const Circuit& circ,
                         const QasmOptions& options = {},
                         QasmEncoder encoder = nullptr);

    /** Exact bytes write() hands to its sink. */
    std::size_t size() const { return size_; }

    QasmEncoder encoder() const { return encoder_; }

    /** Write the program to @p sink, a block at a time. */
    void write(const QasmSink& sink) const;

  private:
    /** How each op is written (defined in qasm.cpp). */
    enum class Step : std::uint8_t;

    const Circuit& circ_;
    QasmOptions options_;
    QasmEncoder encoder_;
    std::vector<Step> steps_;
    std::size_t size_ = 0;
};

/**
 * Render a fixed-width text diagram of the circuit, one line per
 * physical qubit, one column per cycle — the format used by the
 * pattern-explorer example and handy in tests/debugging.
 * Columns: "─●─" endpoints for computes, "─x─" for swaps.
 */
std::string to_diagram(const Circuit& circ);

} // namespace permuq::circuit

#endif // PERMUQ_CIRCUIT_QASM_H
