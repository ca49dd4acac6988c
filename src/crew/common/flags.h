#ifndef CREW_COMMON_FLAGS_H_
#define CREW_COMMON_FLAGS_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "crew/common/status.h"

namespace crew {

/// Strict command-line parser over a table of declared flags. Each flag
/// binds a name to a variable whose value at declaration is the default:
///
///   int samples = 256;
///   FlagParser flags;
///   flags.Add("samples", &samples, "perturbation samples per explanation");
///   flags.ParseOrExit(argc, argv);
///
/// Accepts `--name=value` and `--name value`; a bare `--name` sets a bool
/// flag to true. Anything else is a usage error: a positional argument, an
/// undeclared name (`--help` included), a value that does not parse in full
/// for its type, a bool value other than true/false/1/0/yes/no, or a
/// non-bool flag without a value.
class FlagParser {
 public:
  using Target = std::variant<int*, uint64_t*, double*, bool*, std::string*>;

  /// Declares `--name`, bound to `value`; its current value is the default.
  void Add(std::string name, Target value, std::string help);

  /// Assigns each flag on the command line to its variable; on a usage
  /// error returns InvalidArgument naming the offending argument.
  Status Parse(int argc, const char* const* argv) const;

  /// The declared flags, one per line: name, type, help and default.
  std::string Usage() const;

  /// Parse, or ExitWithUsage on a usage error.
  void ParseOrExit(int argc, const char* const* argv) const;

  /// Prints `reason` and Usage() to stderr and exits with status 2.
  [[noreturn]] void ExitWithUsage(const Status& reason) const;

 private:
  struct Flag {
    std::string name;
    Target target;
    std::string default_value;
    std::string help;
  };
  std::vector<Flag> flags_;
};

}  // namespace crew

#endif  // CREW_COMMON_FLAGS_H_
