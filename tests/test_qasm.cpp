/**
 * @file
 * Tests of the OpenQASM export: structural checks, a semantic check
 * that the lowered CX/RZ sequence implements the same unitary as the
 * abstract RZZ/SWAP schedule (verified with the statevector simulator,
 * including the merged CPHASE+SWAP identity), and byte-for-byte
 * agreement of the block writer with the token-by-token std::ostream
 * writer it replaced, which lives on here as the reference.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <ostream>
#include <sstream>

#include "arch/coupling_graph.h"
#include "circuit/circuit.h"
#include "circuit/metrics.h"
#include "circuit/qasm.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/compiler.h"
#include "problem/generators.h"
#include "sim/statevector.h"

namespace permuq::circuit {
namespace {

/**
 * The QASM writer as it was before the block writer: every token
 * through std::ostream <<. Kept only as the reference the production
 * writer must match byte for byte.
 */
class ReferenceWriter
{
  public:
    ReferenceWriter(std::ostream& out, const QasmOptions& options)
        : out_(out), options_(options)
    {
    }

    void
    begin(const Mapping& initial)
    {
        out_ << "OPENQASM 2.0;\n"
             << "include \"qelib1.inc\";\n"
             << "qreg q[" << initial.num_physical() << "];\n";
        if (options_.full_qaoa) {
            out_ << "creg c[" << initial.num_logical() << "];\n";
            for (std::int32_t l = 0; l < initial.num_logical(); ++l)
                out_ << "h q[" << initial.physical_of(l) << "];\n";
        }
    }

    void
    chunk(const Circuit& fragment)
    {
        std::vector<std::int64_t> partner(fragment.ops().size(), -1);
        if (options_.merge_pairs)
            partner = merge_partner(fragment);
        const auto& ops = fragment.ops();
        std::vector<bool> consumed(ops.size(), false);
        for (std::size_t i = 0; i < ops.size(); ++i) {
            if (consumed[i])
                continue;
            const auto& op = ops[i];
            const std::int32_t p = op.p;
            const std::int32_t q = op.q;
            if (partner[i] >= 0) {
                consumed[static_cast<std::size_t>(partner[i])] = true;
                out_ << "cx q[" << p << "],q[" << q << "];\n";
                out_ << "rz(" << 2.0 * options_.gamma << ") q[" << q
                     << "];\n";
                out_ << "cx q[" << q << "],q[" << p << "];\n";
                out_ << "cx q[" << p << "],q[" << q << "];\n";
            } else if (op.kind == OpKind::Compute) {
                out_ << "cx q[" << p << "],q[" << q << "];\n";
                out_ << "rz(" << 2.0 * options_.gamma << ") q[" << q
                     << "];\n";
                out_ << "cx q[" << p << "],q[" << q << "];\n";
            } else {
                out_ << "cx q[" << p << "],q[" << q << "];\n";
                out_ << "cx q[" << q << "],q[" << p << "];\n";
                out_ << "cx q[" << p << "],q[" << q << "];\n";
            }
        }
    }

    void
    finish(const Mapping& final_mapping)
    {
        if (!options_.full_qaoa)
            return;
        for (std::int32_t l = 0; l < final_mapping.num_logical(); ++l)
            out_ << "rx(" << 2.0 * options_.beta << ") q["
                 << final_mapping.physical_of(l) << "];\n";
        for (std::int32_t l = 0; l < final_mapping.num_logical(); ++l)
            out_ << "measure q[" << final_mapping.physical_of(l)
                 << "] -> c[" << l << "];\n";
    }

  private:
    std::ostream& out_;
    QasmOptions options_;
};

std::string
reference_qasm(const Circuit& circ, const QasmOptions& options)
{
    std::ostringstream out;
    ReferenceWriter writer(out, options);
    writer.begin(circ.initial_mapping());
    writer.chunk(circ);
    writer.finish(circ.final_mapping());
    return out.str();
}

/**
 * A random circuit on @p n fully occupied positions with a shuffled
 * initial mapping; about a third of its computes are followed at once
 * by a swap on the same pair, so the writer merges many pairs.
 */
Circuit
random_circuit(Xoshiro256& rng, std::int32_t n, std::int32_t ops)
{
    std::vector<PhysicalQubit> phys(static_cast<std::size_t>(n));
    std::iota(phys.begin(), phys.end(), 0);
    for (std::size_t i = phys.size(); i > 1; --i)
        std::swap(phys[i - 1], phys[rng.next_below(i)]);
    Circuit circ(Mapping(phys, n));
    for (std::int32_t k = 0; k < ops; ++k) {
        const auto p = static_cast<std::int32_t>(rng.next_below(n));
        const auto q = static_cast<std::int32_t>(rng.next_below(n));
        if (p == q)
            continue;
        switch (rng.next_below(3)) {
        case 0:
            circ.add_compute(p, q);
            if (rng.next_below(2) == 0)
                circ.add_swap(p, q);
            else
                circ.add_swap(q, p);
            break;
        case 1:
            circ.add_compute(p, q);
            break;
        default:
            circ.add_swap(p, q);
        }
    }
    return circ;
}

/** to_qasm and QasmProgram against the reference for @p options. */
void
expect_matches_reference(const Circuit& circ, const QasmOptions& options)
{
    const std::string want = reference_qasm(circ, options);
    EXPECT_EQ(to_qasm(circ, options), want);
    EXPECT_EQ(QasmProgram(circ, options).size(), want.size());

    // Through an encoder the text is the encoding of the reference,
    // and its size is predicted just as exactly.
    std::string escaped;
    common::append_json_escaped(escaped, want);
    const QasmProgram program(circ, options, common::append_json_escaped);
    std::string got;
    std::size_t blocks = 0;
    program.write([&](std::string_view block) {
        got.append(block);
        ++blocks;
    });
    EXPECT_EQ(got, escaped);
    EXPECT_EQ(program.size(), escaped.size());
    EXPECT_GE(blocks, 1u);
}

std::int64_t
count_occurrences(const std::string& text, const std::string& what)
{
    std::int64_t count = 0;
    for (std::size_t pos = text.find(what); pos != std::string::npos;
         pos = text.find(what, pos + 1))
        ++count;
    return count;
}

TEST(QasmTest, HeaderAndRegisters)
{
    Circuit c(Mapping(2, 3));
    c.add_compute(0, 1);
    auto qasm = to_qasm(c);
    EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(qasm.find("qreg q[3];"), std::string::npos);
    EXPECT_EQ(qasm.find("creg"), std::string::npos);
}

TEST(QasmTest, CxCountMatchesMetrics)
{
    // The emitted cx instructions must agree with the metrics' CX
    // count, including merging.
    auto device = arch::make_grid(3, 3);
    auto problem = problem::random_graph(9, 0.5, 3);
    auto compiled = core::compile(device, problem);
    auto qasm = to_qasm(compiled.circuit);
    auto metrics = compute_metrics(compiled.circuit);
    EXPECT_EQ(count_occurrences(qasm, "cx q["), metrics.cx_count);
}

TEST(QasmTest, UnmergedEmissionIsLarger)
{
    auto device = arch::make_grid(3, 3);
    auto problem = problem::random_graph(9, 0.5, 3);
    auto compiled = core::compile(device, problem);
    QasmOptions unmerged;
    unmerged.merge_pairs = false;
    auto plain = to_qasm(compiled.circuit, unmerged);
    auto merged = to_qasm(compiled.circuit);
    EXPECT_GE(count_occurrences(plain, "cx q["),
              count_occurrences(merged, "cx q["));
}

TEST(QasmTest, FullQaoaHasPreludeAndMeasurements)
{
    Circuit c(Mapping(3, 4));
    c.add_compute(0, 1);
    c.add_compute(1, 2);
    QasmOptions options;
    options.full_qaoa = true;
    auto qasm = to_qasm(c, options);
    EXPECT_EQ(count_occurrences(qasm, "h q["), 3);
    EXPECT_EQ(count_occurrences(qasm, "rx("), 3);
    EXPECT_EQ(count_occurrences(qasm, "measure "), 3);
    EXPECT_NE(qasm.find("creg c[3];"), std::string::npos);
}

/**
 * Interpret the emitted QASM with the statevector simulator (only the
 * gates we emit: h / cx / rz / rx / measure-ignored).
 */
void
run_qasm(const std::string& qasm, sim::Statevector& sv)
{
    std::istringstream in(qasm);
    std::string line;
    auto q_of = [](const std::string& s, std::size_t from) {
        std::size_t lb = s.find("q[", from);
        return std::stoi(s.substr(lb + 2));
    };
    while (std::getline(in, line)) {
        if (line.rfind("cx ", 0) == 0) {
            int a = q_of(line, 0);
            std::size_t comma = line.find(',');
            int b = q_of(line, comma);
            sv.apply_cx(a, b);
        } else if (line.rfind("rz(", 0) == 0) {
            double theta = std::stod(line.substr(3));
            sv.apply_rz(q_of(line, 0), theta);
        } else if (line.rfind("rx(", 0) == 0) {
            double theta = std::stod(line.substr(3));
            sv.apply_rx(q_of(line, 0), theta);
        } else if (line.rfind("h ", 0) == 0) {
            sv.apply_h(q_of(line, 0));
        }
    }
}

TEST(QasmTest, LoweredUnitaryMatchesAbstractSchedule)
{
    // Random small circuits: compare the lowered gate sequence with
    // direct RZZ/SWAP application on a random-ish input state.
    Xoshiro256 rng(9);
    for (int trial = 0; trial < 8; ++trial) {
        std::int32_t n = 4;
        Circuit circ(Mapping(n, n));
        for (int k = 0; k < 10; ++k) {
            auto p = static_cast<std::int32_t>(rng.next_below(n));
            auto q = static_cast<std::int32_t>(rng.next_below(n));
            if (p == q)
                continue;
            if (rng.next_below(2) == 0)
                circ.add_compute(p, q);
            else
                circ.add_swap(p, q);
        }
        QasmOptions options;
        options.gamma = 0.37;

        // Reference: apply the schedule directly. SWAP moves state;
        // compute is RZZ(2*gamma) on the positions.
        sim::Statevector want(n), got(n);
        for (std::int32_t q = 0; q < n; ++q) {
            want.apply_h(q);
            want.apply_rz(q, 0.3 + q); // break symmetry
            got.apply_h(q);
            got.apply_rz(q, 0.3 + q);
        }
        for (const auto& op : circ.ops()) {
            if (op.kind == OpKind::Compute) {
                // cx; rz(2g) target; cx  == RZZ up to global phase:
                // e^{-i g} diag(1, e^{2ig}, e^{2ig}, 1); reproduce the
                // exact lowered unitary for comparison.
                want.apply_cx(op.p, op.q);
                want.apply_rz(op.q, 2.0 * options.gamma);
                want.apply_cx(op.p, op.q);
            } else {
                want.apply_swap(op.p, op.q);
            }
        }
        run_qasm(to_qasm(circ, options), got);
        // Compare amplitudes up to global phase.
        std::complex<double> phase(0, 0);
        double err = 0.0;
        for (std::size_t i = 0; i < want.amplitudes().size(); ++i) {
            if (std::abs(want.amplitudes()[i]) > 1e-9 &&
                std::abs(phase) < 0.5)
                phase = got.amplitudes()[i] / want.amplitudes()[i];
        }
        ASSERT_GT(std::abs(phase), 0.5);
        for (std::size_t i = 0; i < want.amplitudes().size(); ++i)
            err += std::abs(got.amplitudes()[i] -
                            phase * want.amplitudes()[i]);
        EXPECT_LT(err, 1e-9) << "trial " << trial;
    }
}

TEST(QasmWriterTest, MatchesReferenceOnRandomCircuits)
{
    Xoshiro256 rng(2026);
    QasmOptions merged;
    QasmOptions unmerged;
    unmerged.merge_pairs = false;
    QasmOptions full;
    full.full_qaoa = true;
    std::int64_t merges = 0;
    for (int trial = 0; trial < 24; ++trial) {
        const auto n = static_cast<std::int32_t>(2 + rng.next_below(40));
        const Circuit circ = random_circuit(
            rng, n, static_cast<std::int32_t>(rng.next_below(300)));
        merges += compute_metrics(circ).merged_pairs;
        SCOPED_TRACE(testing::Message() << "trial " << trial);
        expect_matches_reference(circ, merged);
        expect_matches_reference(circ, unmerged);
        expect_matches_reference(circ, full);
    }
    EXPECT_GT(merges, 200);
}

TEST(QasmWriterTest, MatchesReferenceAtNonDefaultAngles)
{
    Xoshiro256 rng(11);
    const Circuit circ = random_circuit(rng, 12, 80);
    for (const double gamma :
         {0.123456789, 1e-7, 12345.678, -0.25, 0.0, 1e21, 3.0}) {
        for (const double beta : {0.4, 1e-7, 98765.4321}) {
            QasmOptions options;
            options.gamma = gamma;
            options.beta = beta;
            options.full_qaoa = true;
            SCOPED_TRACE(testing::Message()
                         << "gamma " << gamma << " beta " << beta);
            expect_matches_reference(circ, options);
        }
    }
}

TEST(QasmWriterTest, MatchesReferenceOnCompiledCircuits)
{
    // Compiled plans leave positions empty (the device is larger than
    // the problem) and cross block boundaries at 1024 qubits.
    for (const auto kind : {arch::ArchKind::Grid, arch::ArchKind::Sycamore,
                            arch::ArchKind::HeavyHex}) {
        for (const std::int32_t n : {20, 300}) {
            const auto device = arch::smallest_arch(kind, n);
            const auto problem = problem::random_graph(n, 0.2, 7);
            core::CompilerOptions options;
            options.tier = core::CompileTier::Fast;
            const auto result = core::compile(device, problem, options);
            QasmOptions full;
            full.full_qaoa = true;
            expect_matches_reference(result.circuit, {});
            expect_matches_reference(result.circuit, full);
        }
    }
}

TEST(QasmWriterTest, StreamChunksMatchReference)
{
    // One program whose text crosses several 64 KiB blocks.
    Xoshiro256 rng(5);
    const Circuit circ = random_circuit(rng, 200, 10000);
    for (const bool merge : {true, false}) {
        QasmOptions options;
        options.merge_pairs = merge;
        options.gamma = 0.123456789;
        const std::string want = reference_qasm(circ, options);
        EXPECT_GT(want.size(), 4u * 64 * 1024);
        EXPECT_EQ(to_qasm(circ, options), want);

        // A sink sees the same bytes in blocks of at most 64 KiB.
        std::string sunk;
        std::size_t largest = 0;
        QasmProgram(circ, options).write([&](std::string_view block) {
            sunk.append(block);
            largest = std::max(largest, block.size());
        });
        EXPECT_EQ(sunk, want);
        EXPECT_LE(largest, 64u * 1024);
    }
}

TEST(DiagramTest, ShowsOpsAtTheirCycles)
{
    Circuit c(Mapping(3, 3));
    c.add_compute(0, 1);
    c.add_swap(1, 2);
    auto diagram = to_diagram(c);
    // Three qubit lines, 2 cycles wide.
    EXPECT_EQ(count_occurrences(diagram, "\n"), 3);
    EXPECT_NE(diagram.find("-o-"), std::string::npos);
    EXPECT_NE(diagram.find("-x-"), std::string::npos);
    // Qubit 0 has the compute in cycle 0 and idles in cycle 1.
    EXPECT_NE(diagram.find("q0  -o----"), std::string::npos);
}

} // namespace
} // namespace permuq::circuit
