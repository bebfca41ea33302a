// Debug invariant checker: LIVEGRAPH_DCHECK.
//
// Compiled into debug and sanitizer builds (CMake option LIVEGRAPH_DCHECK,
// ON by default except in Release): a failed check prints the condition,
// location and a formatted message, then aborts — loudly, so CI's
// sanitizer/TSan jobs catch protocol violations the moment they happen
// instead of as downstream corruption. In builds without
// LIVEGRAPH_DCHECK_ENABLED every check compiles to nothing (the condition
// is not evaluated), so hot paths are untouched.
//
// These checks guard the documented concurrency protocol, not user input:
//   * EpochDomain: GRE never exceeds GWE, epochs become visible densely in
//     issue order, MarkApplied countdowns never underflow (a double
//     MarkApplied would silently corrupt the visibility order).
//   * CommitManager: single-writer discipline on ring slots, and a ring
//     slot is always drained one lap before it is claimed again.
//   * Wal: exactly one appender at a time (the group-commit leader).
//   * Lock ranking (util/lock_rank.h): out-of-order lock acquisition
//     aborts instead of deadlocking once in a blue moon.
#ifndef LIVEGRAPH_UTIL_INVARIANT_H_
#define LIVEGRAPH_UTIL_INVARIANT_H_

#ifdef LIVEGRAPH_DCHECK_ENABLED

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace livegraph::internal {

[[noreturn]] inline void InvariantFailure(const char* file, int line,
                                          const char* condition,
                                          const char* format, ...) {
  std::fprintf(stderr, "LIVEGRAPH_DCHECK failed at %s:%d: %s\n  ", file, line,
               condition);
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::fflush(stderr);
  std::abort();
}

}  // namespace livegraph::internal

/// LIVEGRAPH_DCHECK(cond, "format", args...) — abort with a message when
/// `cond` is false. The message should name the protocol invariant that
/// broke, not restate the condition.
#define LIVEGRAPH_DCHECK(cond, ...)                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::livegraph::internal::InvariantFailure(__FILE__, __LINE__, #cond, \
                                              __VA_ARGS__);             \
    }                                                                   \
  } while (false)

#else  // !LIVEGRAPH_DCHECK_ENABLED

// Disabled: the condition is not evaluated (it may be racy-but-monotone
// diagnostics too expensive or too strict for production ordering).
#define LIVEGRAPH_DCHECK(cond, ...) \
  do {                              \
  } while (false)

#endif  // LIVEGRAPH_DCHECK_ENABLED

#endif  // LIVEGRAPH_UTIL_INVARIANT_H_
