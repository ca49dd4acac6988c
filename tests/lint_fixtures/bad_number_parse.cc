// Fixture: lenient number parsers violate [lenient-number-parse]; each
// accepts trailing junk or wraps a sign instead of refusing the input.
#include <cstdlib>
#include <string>

long long LenientParses(const std::string& s, const char* c) {
  int a = std::atoi(c);                                  // finding
  double b = atof(c);                                    // finding
  unsigned long long d = std::strtoull(c, nullptr, 10);  // finding
  int e = std::stoi(s);                                  // finding
  // crew-lint: allow(lenient-number-parse): fixture's suppressed line.
  double f = std::strtod(c, nullptr);
  return a + static_cast<long long>(b + f) + static_cast<long long>(d) + e;
}

struct Parser;  // defined elsewhere, with a member named stoi()
int my_atoi(const std::string& s);

// Names that merely contain a parser's name, members and strings stay clean.
int NotParsers(Parser* parser, const std::string& s) {
  return parser->stoi(s) + my_atoi(s) + static_cast<int>(s.find("atoi("));
}
