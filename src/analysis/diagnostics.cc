#include "analysis/diagnostics.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace cspdb {

std::string Diagnostic::ToString() const {
  std::string s = severity == Severity::kError ? "error[" : "warning[";
  s += component;
  s += "]";
  if (!location.empty()) {
    s += " ";
    s += location;
  }
  s += ": ";
  s += message;
  return s;
}

bool HasErrors(const Diagnostics& diagnostics) {
  return CountErrors(diagnostics) > 0;
}

int CountErrors(const Diagnostics& diagnostics) {
  int n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) ++n;
  }
  return n;
}

std::string FormatDiagnostics(const Diagnostics& diagnostics) {
  std::string s;
  for (const Diagnostic& d : diagnostics) {
    s += d.ToString();
    s += "\n";
  }
  return s;
}

std::string TupleString(const std::vector<int>& t) {
  std::string s = "(";
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(t[i]);
  }
  s += ")";
  return s;
}

DiagnosticSink::DiagnosticSink(std::string component, Diagnostics* out)
    : component_(std::move(component)), out_(out) {}

void DiagnosticSink::Error(std::string location, std::string message) {
  out_->push_back(Diagnostic{Severity::kError, component_,
                             std::move(location), std::move(message)});
  ++errors_;
}

void DiagnosticSink::Warning(std::string location, std::string message) {
  out_->push_back(Diagnostic{Severity::kWarning, component_,
                             std::move(location), std::move(message)});
}

void AuditOrDie(const char* what, const Diagnostics& diagnostics) {
  if (!HasErrors(diagnostics)) return;
  std::fprintf(stderr, "CSPDB_AUDIT failed: %s\n%s", what,
               FormatDiagnostics(diagnostics).c_str());
  std::abort();
}

}  // namespace cspdb
