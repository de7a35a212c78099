//===- Minimizer.h - Delta-debugging reducer for .sir repros ----*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reduces a failing textual IR module to a small repro, ddmin-style:
/// remove shrinking chunks of statement lines, and simplify condbr
/// terminators to unconditional branches, keeping every change for which
/// the caller's predicate says the program still fails. The predicate
/// owns validity: candidate text that no longer parses, verifies, or
/// fails the same way must make it return false, and the removal is
/// rejected. That keeps the minimizer a pure text transform with no
/// knowledge of IR semantics beyond the line grammar.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_FUZZ_MINIMIZER_H
#define SRP_FUZZ_MINIMIZER_H

#include <functional>
#include <string>

namespace srp::ir {
class Module;
} // namespace srp::ir

namespace srp::fuzz {

/// Returns true when \p ModuleText still exhibits the failure being
/// minimized (and is otherwise valid input).
using FailPredicate = std::function<bool(const std::string &ModuleText)>;

struct MinimizeOptions {
  /// Full remove-and-simplify sweeps before giving up on reaching a
  /// fixpoint (each sweep is itself iterated to exhaustion per chunk
  /// size, so the default is rarely hit).
  unsigned MaxRounds = 6;
};

/// Minimizes \p Text under \p StillFails. Returns the reduced text; if
/// the input does not satisfy the predicate it is returned unchanged.
std::string minimizeModuleText(const std::string &Text,
                               const FailPredicate &StillFails,
                               const MinimizeOptions &Opts = {});

/// True if some function of the parsed \p M reads a temp that is not
/// defined on every path to the read (a must-defined dataflow over the
/// CFG; unreachable blocks are ignored). The interpreter reads such a
/// temp as zero while compiled code reads a stale register, so a
/// minimization candidate with one fails the oracle for that reason
/// alone; fuzz predicates reject them so repros keep the original
/// fault. \p M's CFG must be current (Function::recomputeCFG).
bool readsUndefinedTemp(const ir::Module &M);

/// Number of statement lines (loads, stores, assigns, calls, prints, ...)
/// in \p Text — structural lines (global/func/local/labels/terminators/
/// braces) excluded. The fuzzer reports this as the repro's size.
unsigned countStatements(const std::string &Text);

} // namespace srp::fuzz

#endif // SRP_FUZZ_MINIMIZER_H
