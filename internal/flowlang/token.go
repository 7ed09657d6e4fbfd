// Package flowlang implements the PSA-flow description language: a small
// DSL that expresses tasks, branch points, selection strategies, budgets,
// and fault/retry policy as data (.psa documents), so new flow scenarios
// need no engine change. The package provides a lexer and recursive-descent
// parser producing a positioned AST (the same idioms as internal/minic:
// recursion depth limits, line/column error spans), a validator that
// reports every semantic error with its position, and a compiler lowering
// a validated document onto the internal/core + internal/tasks engine —
// informed/uninformed execution, telemetry, event streaming, faults and
// retries, and the run cache all work unchanged on compiled flows.
//
// The built-in PSA-flow of paper Fig. 4 is a document too:
// examples/flows/paper.psa, bundled into the binaries and lowered per job
// (PSAFlow, Bundled). The full language reference is docs/FLOWS.md.
package flowlang

import "fmt"

// TokKind enumerates flow-DSL token kinds.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokNumber
	TokString

	// Keywords.
	TokKwFlow
	TokKwDef
	TokKwUse
	TokKwTask
	TokKwBranch
	TokKwPath
	TokKwForeach
	TokKwIn
	TokKwAs
	TokKwWhen
	TokKwStrategy
	TokKwGated
	TokKwRevisions
	TokKwBudget
	TokKwRetry
	TokKwFaults

	// Punctuation.
	TokLBrace
	TokRBrace
	TokLParen
	TokRParen
	TokComma
	TokAssign
	TokNot
	TokDot
)

var tokNames = map[TokKind]string{
	TokEOF:    "EOF",
	TokIdent:  "identifier",
	TokNumber: "number",
	TokString: "string literal",

	TokKwFlow:      "flow",
	TokKwDef:       "def",
	TokKwUse:       "use",
	TokKwTask:      "task",
	TokKwBranch:    "branch",
	TokKwPath:      "path",
	TokKwForeach:   "foreach",
	TokKwIn:        "in",
	TokKwAs:        "as",
	TokKwWhen:      "when",
	TokKwStrategy:  "strategy",
	TokKwGated:     "gated",
	TokKwRevisions: "revisions",
	TokKwBudget:    "budget",
	TokKwRetry:     "retry",
	TokKwFaults:    "faults",

	TokLBrace: "{",
	TokRBrace: "}",
	TokLParen: "(",
	TokRParen: ")",
	TokComma:  ",",
	TokAssign: "=",
	TokNot:    "!",
	TokDot:    ".",
}

// String returns the canonical spelling of the token kind.
func (k TokKind) String() string {
	if s, ok := tokNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TokKind(%d)", int(k))
}

var keywords = map[string]TokKind{
	"flow":      TokKwFlow,
	"def":       TokKwDef,
	"use":       TokKwUse,
	"task":      TokKwTask,
	"branch":    TokKwBranch,
	"path":      TokKwPath,
	"foreach":   TokKwForeach,
	"in":        TokKwIn,
	"as":        TokKwAs,
	"when":      TokKwWhen,
	"strategy":  TokKwStrategy,
	"gated":     TokKwGated,
	"revisions": TokKwRevisions,
	"budget":    TokKwBudget,
	"retry":     TokKwRetry,
	"faults":    TokKwFaults,
}

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a lexical token with its source position and literal text.
type Token struct {
	Kind TokKind
	Lit  string
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case TokIdent, TokNumber:
		return fmt.Sprintf("%s %q", t.Kind, t.Lit)
	case TokString:
		return fmt.Sprintf("string %q", t.Lit)
	default:
		return t.Kind.String()
	}
}
