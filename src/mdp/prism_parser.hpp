// Parser for the explicit-state PRISM-language subset that
// src/mdp/export.hpp emits.
//
// Grammar (comments `// ...` allowed anywhere):
//
//   model    := ("dtmc" | "mdp") module labels? rewards?
//   module   := "module" ident var command* "endmodule"
//   var      := ident ":" "[" int ".." int "]" "init" int ";"
//   command  := "[" ident? "]" ident "=" int "->" update ("+" update)* ";"
//   update   := number ":" "(" ident "'" "=" int ")"
//   labels   := ("label" quoted "=" guard ("|" guard)* ";")*
//   guard    := "(" ident "=" int ")" | "false"
//   rewards  := "rewards" quoted reward* "endrewards"
//   reward   := ("[" ident "]")? ident "=" int ":" number ";"
//
// This makes the export/import pair a faithful round trip and lets models
// authored for PRISM (in this single-module explicit style) be loaded into
// the tml pipeline directly.
//
// The lexer scans a view of the source without copying it: identifiers
// and strings are views, integers and numbers go through std::from_chars,
// and each action and label name is resolved to its id once. Each state's
// choices are handed to the Mdp together, so every choice list and every
// distribution is allocated once at its exact size. The grammar above and
// the error contract (every ParseError message and its line/column, every
// ModelError) are those of the string-copying parser this replaced;
// tests/test_prism_parser.cpp pins them.

#pragma once

#include <string>

#include "src/mdp/model.hpp"

namespace tml {

/// The parsed model; exactly one of the two is meaningful per `type`.
struct PrismModel {
  enum class Type { kDtmc, kMdp } type = Type::kMdp;
  Mdp mdp;  ///< always populated (a DTMC parses into a one-choice MDP)

  /// DTMC view; throws unless type == kDtmc.
  Dtmc dtmc() const;
};

/// Parses PRISM source text; throws ParseError with position information
/// on malformed input and ModelError if the resulting model is invalid.
PrismModel parse_prism(const std::string& source);

}  // namespace tml
