#include "safeopt/ftio/writer.h"

#include "safeopt/support/contracts.h"
#include "safeopt/support/strings.h"

namespace safeopt::ftio {
namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

void write_structure(const fta::FaultTree& tree, std::string& out) {
  SAFEOPT_EXPECTS(tree.has_top());
  out += concat("tree ", tree.name(), ";\n");
  out += concat("toplevel ", tree.node_name(tree.top()), ";\n");
  for (fta::NodeId id = 0; id < tree.node_count(); ++id) {
    if (tree.kind(id) != fta::NodeKind::kGate) continue;
    out += tree.node_name(id);
    switch (tree.gate_type(id)) {
      case fta::GateType::kAnd: out += " and"; break;
      case fta::GateType::kOr: out += " or"; break;
      case fta::GateType::kXor: out += " xor"; break;
      case fta::GateType::kInhibit: out += " inhibit"; break;
      case fta::GateType::kKofN:
        out += concat(" ", std::to_string(tree.vote_threshold(id)), "of",
                      std::to_string(tree.children(id).size()));
        break;
    }
    for (const fta::NodeId child : tree.children(id)) {
      out += concat(" ", tree.node_name(child));
    }
    out += ";\n";
  }
}

std::string write_fault_tree(const fta::FaultTree& tree,
                             const fta::QuantificationInput& probabilities) {
  SAFEOPT_EXPECTS(tree.has_top());
  SAFEOPT_EXPECTS(probabilities.is_valid_for(tree));
  for (fta::NodeId id = 0; id < tree.node_count(); ++id) {
    SAFEOPT_EXPECTS(!tree.node_name(id).empty());
  }
  std::string out;
  write_structure(tree, out);
  for (const fta::NodeId id : tree.basic_events()) {
    out += concat(
        tree.node_name(id), " prob = ",
        format_double(
            probabilities.basic_event_probability[tree.basic_event_ordinal(
                id)]),
        ";\n");
  }
  for (const fta::NodeId id : tree.conditions()) {
    out += concat(
        tree.node_name(id), " condition prob = ",
        format_double(
            probabilities.condition_probability[tree.condition_ordinal(id)]),
        ";\n");
  }
  return out;
}

std::string to_dot(const fta::FaultTree& tree,
                   const fta::QuantificationInput* probabilities) {
  std::string out = concat("digraph \"", tree.name(), "\" {\n");
  out += "  rankdir=TB;\n  node [fontname=\"Helvetica\"];\n";
  for (fta::NodeId id = 0; id < tree.node_count(); ++id) {
    const std::string& name = tree.node_name(id);
    std::string label = name;
    std::string shape = "box";
    switch (tree.kind(id)) {
      case fta::NodeKind::kBasicEvent: {
        shape = "circle";  // paper Fig. 1: primary failures are circles
        if (probabilities != nullptr) {
          label += concat(
              "\\np=",
              format_double(
                  probabilities
                      ->basic_event_probability[tree.basic_event_ordinal(
                          id)]));
        }
        break;
      }
      case fta::NodeKind::kCondition: {
        shape = "ellipse";  // INHIBIT side conditions are ovals
        if (probabilities != nullptr) {
          label += concat(
              "\\np=",
              format_double(
                  probabilities->condition_probability[tree.condition_ordinal(
                      id)]));
        }
        break;
      }
      case fta::NodeKind::kGate: {
        switch (tree.gate_type(id)) {
          case fta::GateType::kAnd: shape = "invhouse"; break;
          case fta::GateType::kOr: shape = "invtriangle"; break;
          case fta::GateType::kXor: shape = "diamond"; break;
          case fta::GateType::kInhibit: shape = "hexagon"; break;
          case fta::GateType::kKofN: shape = "trapezium"; break;
        }
        label += concat("\\n[", fta::to_string(tree.gate_type(id)),
                        tree.gate_type(id) == fta::GateType::kKofN
                            ? concat(" ",
                                     std::to_string(tree.vote_threshold(id)))
                            : std::string(),
                        "]");
        break;
      }
    }
    out += concat("  \"", name, "\" [shape=", shape, ", label=\"", label,
                  "\"];\n");
  }
  for (fta::NodeId id = 0; id < tree.node_count(); ++id) {
    if (tree.kind(id) != fta::NodeKind::kGate) continue;
    const auto children = tree.children(id);
    for (std::size_t c = 0; c < children.size(); ++c) {
      out += concat("  \"", tree.node_name(id), "\" -> \"",
                    tree.node_name(children[c]), "\"");
      if (tree.gate_type(id) == fta::GateType::kInhibit && c == 1) {
        out += " [style=dashed, label=\"condition\"]";
      }
      out += ";\n";
    }
  }
  out += "}\n";
  return out;
}

std::string to_json(const fta::FaultTree& tree,
                    const fta::QuantificationInput& probabilities) {
  SAFEOPT_EXPECTS(tree.has_top());
  SAFEOPT_EXPECTS(probabilities.is_valid_for(tree));
  std::string out = "{\n";
  out += concat("  \"name\": \"", json_escape(tree.name()), "\",\n");
  out += concat("  \"toplevel\": \"", json_escape(tree.node_name(tree.top())),
                "\",\n");
  out += "  \"nodes\": [\n";
  for (fta::NodeId id = 0; id < tree.node_count(); ++id) {
    out += concat("    {\"name\": \"", json_escape(tree.node_name(id)),
                  "\", ");
    switch (tree.kind(id)) {
      case fta::NodeKind::kBasicEvent:
        out += concat(
            "\"kind\": \"basic-event\", \"prob\": ",
            format_double(
                probabilities.basic_event_probability[tree.basic_event_ordinal(
                    id)]));
        break;
      case fta::NodeKind::kCondition:
        out += concat(
            "\"kind\": \"condition\", \"prob\": ",
            format_double(
                probabilities.condition_probability[tree.condition_ordinal(
                    id)]));
        break;
      case fta::NodeKind::kGate: {
        out += concat("\"kind\": \"gate\", \"gate\": \"",
                      fta::to_string(tree.gate_type(id)), "\"");
        if (tree.gate_type(id) == fta::GateType::kKofN) {
          out += concat(", \"k\": ",
                        std::to_string(tree.vote_threshold(id)));
        }
        out += ", \"children\": [";
        const auto children = tree.children(id);
        for (std::size_t c = 0; c < children.size(); ++c) {
          if (c > 0) out += ", ";
          out += concat("\"", json_escape(tree.node_name(children[c])), "\"");
        }
        out += "]";
        break;
      }
    }
    out += "}";
    if (id + 1 < tree.node_count()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace safeopt::ftio
