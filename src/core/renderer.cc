#include "src/core/renderer.h"

#include <set>

#include "src/support/str.h"

namespace gist {
namespace {

std::string StatementText(const Module& module, InstrId id) {
  const Instruction& instr = module.instr(id);
  if (!instr.loc.text.empty()) {
    return instr.loc.text;
  }
  return InstructionToString(instr);
}

}  // namespace

std::string RenderFailureSketch(const Module& module, const FailureSketch& sketch,
                                const RenderOptions& options) {
  std::string out;
  out += "Failure Sketch: " + sketch.title + "\n";
  out += StrFormat("Type: %s\n", FailureTypeName(sketch.failure_type));
  out += StrFormat("Runs: %u failing, %u successful\n", sketch.failing_runs_used,
                   sketch.successful_runs_used);

  std::set<InstrId> ideal_set;
  if (options.ideal != nullptr) {
    ideal_set.insert(options.ideal->instrs.begin(), options.ideal->instrs.end());
  }

  const uint32_t width = options.column_width;
  // Header: Time | Thread T<id> columns.
  out += '\n';
  out += PadRight("Time", 6);
  for (ThreadId tid : sketch.threads) {
    out += PadRight(StrFormat("Thread T%u", tid), width);
  }
  out += '\n';
  out.append(6 + width * sketch.threads.size(), '-');
  out += '\n';

  auto column = [&](ThreadId tid) {
    for (size_t i = 0; i < sketch.threads.size(); ++i) {
      if (sketch.threads[i] == tid) {
        return i;
      }
    }
    return size_t{0};
  };

  for (const SketchStatement& statement : sketch.statements) {
    std::string text = StatementText(module, statement.instr);
    std::string marker;
    if (statement.highlighted) {
      marker += "[*]";  // top-ranked failure predictor (dotted box in paper)
    }
    if (options.ideal != nullptr && ideal_set.count(statement.instr) == 0) {
      marker += "·";  // extraneous relative to the ideal sketch ("grayed out")
    }
    if (statement.discovered_at_runtime) {
      marker += "+";  // added by data-flow refinement, not in the static slice
    }
    if (!marker.empty()) {
      text = marker + " " + text;
    }
    if (statement.value.has_value()) {
      text += StrFormat("   {=%lld}", static_cast<long long>(*statement.value));
    }
    if (statement.is_failure_point) {
      text += "   <== FAILURE";
    }

    out += PadRight(StrFormat("%4u  ", statement.step), 6);
    const size_t col = column(statement.tid);
    out += std::string(col * width, ' ');
    out += text + "\n";
  }

  out += "\nBest failure predictors (F-measure, beta=0.5):\n";
  auto show = [&](const char* label, const std::optional<ScoredPredictor>& scored) {
    if (!scored.has_value()) {
      return;
    }
    out += StrFormat("  %-12s F=%.3f P=%.3f R=%.3f  %s\n", label, scored->f_measure,
                     scored->precision, scored->recall,
                     PredictorToString(scored->predictor, module).c_str());
  };
  show("concurrency", sketch.best_concurrency);
  show("value", sketch.best_value);
  show("value-range", sketch.best_value_range);
  show("branch", sketch.best_branch);
  return out;
}

}  // namespace gist
