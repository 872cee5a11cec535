// Serialization of fault trees: the textual dialect of parser.h (round-trip
// guaranteed), GraphViz DOT (the shapes follow the paper's Fig. 1 symbol
// conventions: gates as houses/triangles, primary failures as circles,
// conditions as ellipses), and a JSON rendering for external tooling.
#ifndef SAFEOPT_FTIO_WRITER_H
#define SAFEOPT_FTIO_WRITER_H

#include <string>

#include "safeopt/fta/fault_tree.h"
#include "safeopt/fta/probability.h"

namespace safeopt::ftio {

/// Appends the structure part of the parser.h dialect to `out`: the `tree`
/// and `toplevel` lines and one line per gate, in node order. The one gate
/// writer behind write_fault_tree and write_study.
/// Precondition: tree.has_top() and every node is named.
void write_structure(const fta::FaultTree& tree, std::string& out);

/// Writes the parser.h dialect. parse_fault_tree(write_fault_tree(t, q))
/// reproduces the same structure and probabilities.
/// Precondition: tree.has_top() and every node is named (an anonymous node
/// has no identifier the dialect could reference).
[[nodiscard]] std::string write_fault_tree(
    const fta::FaultTree& tree, const fta::QuantificationInput& probabilities);

/// GraphViz DOT export (dot -Tsvg renders the tree, paper Fig. 2 style).
/// Probabilities, if provided, are included in the leaf labels.
[[nodiscard]] std::string to_dot(
    const fta::FaultTree& tree,
    const fta::QuantificationInput* probabilities = nullptr);

/// JSON export: {"name": ..., "toplevel": ..., "nodes": [...]}.
[[nodiscard]] std::string to_json(
    const fta::FaultTree& tree, const fta::QuantificationInput& probabilities);

}  // namespace safeopt::ftio

#endif  // SAFEOPT_FTIO_WRITER_H
