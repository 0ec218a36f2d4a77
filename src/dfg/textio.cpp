#include "dfg/textio.hpp"

#include <cerrno>
#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace mcrtl::dfg {

namespace {

[[noreturn]] void fail(int line, const std::string& msg) {
  throw Error(str_format("dfg parse error at line %d: %s", line, msg.c_str()));
}

/// Parse all of `tok` as a decimal integer in [lo, hi]. Trailing
/// characters, overflow and out-of-range values fail the parse at `line`.
int parse_int(int line, const std::string& tok, int lo, int hi,
              const char* what) {
  const auto v = parse_number(tok, lo, hi);
  if (!v) {
    fail(line, str_format("%s must be an integer in %d..%d, got '%s'", what,
                          lo, hi, tok.c_str()));
  }
  return *v;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok[0] == '#') break;  // comment until end of line
    out.push_back(tok);
  }
  return out;
}

}  // namespace

ParsedDfg parse_dfg(std::istream& in) {
  std::unique_ptr<Graph> graph;
  std::map<std::string, ValueId> names;
  struct PendingStep {
    NodeId node;
    int step;
  };
  std::vector<PendingStep> steps;
  std::vector<std::pair<std::string, int>> outputs;  // name, line
  bool all_scheduled = true;
  bool any_node = false;

  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto tok = tokenize(line);
    if (tok.empty()) continue;

    if (tok[0] == "graph") {
      if (graph) fail(lineno, "duplicate graph header");
      if (tok.size() != 4 || tok[2] != "width") {
        fail(lineno, "expected: graph <name> width <bits>");
      }
      const int w = parse_int(lineno, tok[3], 1, 64, "width");
      graph = std::make_unique<Graph>(tok[1], static_cast<unsigned>(w));
      continue;
    }
    if (!graph) fail(lineno, "missing 'graph <name> width <bits>' header");

    if (tok[0] == "input") {
      if (tok.size() != 2) fail(lineno, "expected: input <name>");
      if (names.count(tok[1])) fail(lineno, "name '" + tok[1] + "' reused");
      names[tok[1]] = graph->add_input(tok[1]);
    } else if (tok[0] == "const") {
      // const <name> = <value>
      if (tok.size() != 4 || tok[2] != "=") {
        fail(lineno, "expected: const <name> = <value>");
      }
      if (names.count(tok[1])) fail(lineno, "name '" + tok[1] + "' reused");
      char* end = nullptr;
      errno = 0;
      const long long v = std::strtoll(tok[3].c_str(), &end, 0);
      if (end == tok[3].c_str() || *end != '\0' || errno == ERANGE) {
        fail(lineno, "bad constant value '" + tok[3] + "'");
      }
      names[tok[1]] = graph->add_constant(v, tok[1]);
    } else if (tok[0] == "node") {
      // node <name> = <op> <operand>... [@ <step>]
      if (tok.size() < 5 || tok[2] != "=") {
        fail(lineno, "expected: node <name> = <op> <operands...> [@ step]");
      }
      if (names.count(tok[1])) fail(lineno, "name '" + tok[1] + "' reused");
      Op op;
      try {
        op = parse_op(tok[3]);
      } catch (const Error&) {
        fail(lineno, "unknown op '" + tok[3] + "'");
      }
      std::vector<ValueId> operands;
      std::size_t i = 4;
      for (; i < tok.size() && tok[i] != "@"; ++i) {
        auto it = names.find(tok[i]);
        if (it == names.end()) fail(lineno, "unknown operand '" + tok[i] + "'");
        operands.push_back(it->second);
      }
      if (operands.size() != op_arity(op)) {
        fail(lineno, str_format("op %s takes %u operands, got %zu", op_name(op),
                                op_arity(op), operands.size()));
      }
      NodeId nid;
      try {
        nid = graph->add_node(op, std::move(operands), tok[1]);
      } catch (const Error& e) {
        fail(lineno, e.what());
      }
      any_node = true;
      names[tok[1]] = graph->node(nid).output;
      if (i < tok.size()) {  // "@ step"
        if (i + 2 != tok.size()) fail(lineno, "expected: @ <step>");
        steps.push_back(
            {nid, parse_int(lineno, tok[i + 1], 1, kMaxDfgStep, "step")});
      } else {
        all_scheduled = false;
      }
    } else if (tok[0] == "output") {
      if (tok.size() != 2) fail(lineno, "expected: output <name>");
      outputs.emplace_back(tok[1], lineno);
    } else {
      fail(lineno, "unknown directive '" + tok[0] + "'");
    }
  }
  if (!graph) fail(lineno, "empty document");
  for (const auto& [name, line] : outputs) {
    auto it = names.find(name);
    if (it == names.end()) fail(line, "unknown output '" + name + "'");
    graph->mark_output(it->second);
  }
  graph->validate();

  ParsedDfg out;
  if (any_node && all_scheduled) {
    out.schedule = std::make_unique<Schedule>(*graph);
    for (const auto& ps : steps) out.schedule->set_step(ps.node, ps.step);
    out.schedule->validate();
  }
  out.graph = std::move(graph);
  return out;
}

ParsedDfg parse_dfg(const std::string& text) {
  std::istringstream is(text);
  return parse_dfg(is);
}

std::string serialize_dfg(const Graph& g, const Schedule* sched) {
  std::ostringstream os;
  os << "graph " << sanitize_identifier(g.name()) << " width " << g.width()
     << "\n";
  // Stable, collision-free names: sanitize, then disambiguate duplicates
  // (e.g. two distinct constants both auto-named "c-1") with the value id.
  std::map<ValueId, std::string> unique_names;
  {
    std::map<std::string, int> used;
    for (const auto& v : g.values()) {
      std::string n = sanitize_identifier(v.name);
      if (used[n]++ > 0) n += str_format("_v%u", v.id.value());
      unique_names[v.id] = std::move(n);
    }
  }
  auto name_of = [&](ValueId v) { return unique_names.at(v); };
  for (ValueId v : g.inputs()) os << "input " << name_of(v) << "\n";
  for (ValueId v : g.constants()) {
    os << "const " << name_of(v) << " = " << g.value(v).const_value << "\n";
  }
  for (NodeId nid : g.topo_order()) {
    const Node& n = g.node(nid);
    os << "node " << name_of(n.output) << " = " << op_name(n.op);
    for (ValueId in : n.inputs) os << " " << name_of(in);
    if (sched) os << " @ " << sched->step(nid);
    os << "\n";
  }
  for (ValueId v : g.outputs()) os << "output " << name_of(v) << "\n";
  return os.str();
}

}  // namespace mcrtl::dfg
