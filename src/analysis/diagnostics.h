// Structured diagnostics for the invariant-audit layer (src/analysis).
//
// Validators inspect a finished artifact — a structure, a CSP instance, a
// decomposition, a Datalog program, a solver certificate — and report
// every violated invariant as a Diagnostic instead of aborting on the
// first one. Callers decide what to do with the list: tests assert on
// specific diagnostics, the CSPDB_AUDIT call sites in producers abort via
// AuditOrDie, and tools can print the whole report.

#ifndef CSPDB_ANALYSIS_DIAGNOSTICS_H_
#define CSPDB_ANALYSIS_DIAGNOSTICS_H_

#include <string>
#include <vector>

namespace cspdb {

/// How bad a violated invariant is. Errors mean the artifact is unusable
/// (a theorem's hypothesis is false); warnings flag suspicious but
/// technically legal states (e.g. an empty constraint relation).
enum class Severity {
  kWarning,
  kError,
};

/// One violated (or suspicious) invariant. File-free: `location` is a
/// position inside the artifact ("constraint 3", "bag 7/vertex 2"), not a
/// source location.
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string component;  ///< validator that produced it, e.g. "csp_instance"
  std::string location;   ///< position inside the artifact; may be empty
  std::string message;    ///< human-readable description of the violation

  /// "error[csp_instance] constraint 3: scope variable 9 out of range"
  std::string ToString() const;
};

/// The result of running a validator.
using Diagnostics = std::vector<Diagnostic>;

/// True if any diagnostic has Severity::kError.
bool HasErrors(const Diagnostics& diagnostics);

/// Number of diagnostics with Severity::kError.
int CountErrors(const Diagnostics& diagnostics);

/// One line per diagnostic (ToString), newline-terminated; empty string
/// for an empty list.
std::string FormatDiagnostics(const Diagnostics& diagnostics);

/// "(1,2,3)": a tuple as validators print it in locations and messages.
std::string TupleString(const std::vector<int>& t);

/// Appends diagnostics for one component. Validators create one sink per
/// artifact and call Error/Warning as they find violations.
class DiagnosticSink {
 public:
  /// `out` must outlive the sink.
  DiagnosticSink(std::string component, Diagnostics* out);

  void Error(std::string location, std::string message);
  void Warning(std::string location, std::string message);

  /// Number of errors emitted through this sink so far.
  int errors() const { return errors_; }

 private:
  std::string component_;
  Diagnostics* out_;
  int errors_ = 0;
};

/// Prints the diagnostics to stderr and aborts if any is an error; quiet
/// no-op otherwise. `what` names the audited artifact in the failure
/// banner. This is the funnel used by CSPDB_AUDIT call sites: producers
/// audit their own output in Debug/sanitizer builds and crash loudly on
/// a violated invariant rather than returning a corrupt certificate.
void AuditOrDie(const char* what, const Diagnostics& diagnostics);

}  // namespace cspdb

#endif  // CSPDB_ANALYSIS_DIAGNOSTICS_H_
