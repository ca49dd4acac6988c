#include "crew/common/flags.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "crew/common/string_util.h"

namespace crew {
namespace {

// Indexed by the Target alternative.
constexpr const char* kTypeNames[] = {"int", "uint64", "double", "bool",
                                      "string"};

// Each parses all of `text` into `v`; false leaves `v` untouched.
bool Assign(int* v, std::string_view text) { return ParseInt(text, v); }
bool Assign(uint64_t* v, std::string_view text) {
  return ParseUint64(text, v);
}
bool Assign(double* v, std::string_view text) { return ParseDouble(text, v); }
bool Assign(std::string* v, std::string_view text) {
  *v = text;
  return true;
}
bool Assign(bool* v, std::string_view text) {
  const std::string b = AsciiLower(text);
  const bool yes = b == "true" || b == "1" || b == "yes";
  if (!yes && b != "false" && b != "0" && b != "no") return false;
  *v = yes;
  return true;
}

template <typename T>
std::string Text(const T* v) { return std::to_string(*v); }
std::string Text(const double* v) { return StrPrintf("%g", *v); }
std::string Text(const bool* v) { return *v ? "true" : "false"; }
std::string Text(const std::string* v) { return v->empty() ? "\"\"" : *v; }

}  // namespace

void FlagParser::Add(std::string name, Target value, std::string help) {
  std::string text = std::visit([](auto* v) { return Text(v); }, value);
  flags_.push_back({std::move(name), value, std::move(text), std::move(help)});
}

Status FlagParser::Parse(int argc, const char* const* argv) const {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!StartsWith(arg, "--")) {
      return Status::InvalidArgument("unexpected positional argument: " +
                                     std::string(arg));
    }
    arg.remove_prefix(2);
    const size_t eq = arg.find('=');
    const std::string name(arg.substr(0, eq));
    const auto flag = std::find_if(
        flags_.begin(), flags_.end(),
        [&name](const Flag& f) { return f.name == name; });
    if (flag == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    std::string_view value = "true";  // a bare bool flag
    if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      value = argv[++i];
    } else if (!std::holds_alternative<bool*>(flag->target)) {
      return Status::InvalidArgument("--" + name + " needs a value");
    }
    if (!std::visit([value](auto* v) { return Assign(v, value); },
                    flag->target)) {
      return Status::InvalidArgument("--" + name + " takes " +
                                     kTypeNames[flag->target.index()] +
                                     ", not '" + std::string(value) + "'");
    }
  }
  return Status::Ok();
}

std::string FlagParser::Usage() const {
  size_t width = 0;
  for (const Flag& flag : flags_) width = std::max(width, flag.name.size());
  std::string out =
      "flags (--name=value or --name value; a bool takes true/false/1/0/"
      "yes/no, or no value for true):\n";
  for (const Flag& flag : flags_) {
    out += StrPrintf("  --%-*s  %-6s  %s (default: %s)\n",
                     static_cast<int>(width), flag.name.c_str(),
                     kTypeNames[flag.target.index()], flag.help.c_str(),
                     flag.default_value.c_str());
  }
  return out;
}

void FlagParser::ParseOrExit(int argc, const char* const* argv) const {
  if (Status status = Parse(argc, argv); !status.ok()) ExitWithUsage(status);
}

void FlagParser::ExitWithUsage(const Status& reason) const {
  // crew-lint: allow(raw-stdio): a usage error is the command line's own
  // report to the person who typed it, not a log record.
  std::fprintf(stderr, "%s\n%s", reason.ToString().c_str(), Usage().c_str());
  std::exit(2);
}

}  // namespace crew
