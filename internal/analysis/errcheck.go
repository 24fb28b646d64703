package analysis

import (
	"go/ast"
	"go/types"
)

// ErrCheck flags call statements that silently discard an error result.
// A dropped error in a fabrication or simulation path means an experiment
// keeps running on invalid state and produces a figure nobody can trust.
// This is the "lite" variant: it checks expression statements only —
// an explicit `_ = f()` assignment is treated as a deliberate, visible
// discard and left alone, as are the print-family helpers below whose
// errors are conventionally ignored.
var ErrCheck = &Analyzer{
	Name: "errcheck",
	Doc:  "flag call statements that discard an error result",
	Run:  perPackage(runErrCheck),
}

// errcheckExemptFuncs lists fully-qualified functions whose error results
// are conventionally discarded (terminal output; failure is untreatable).
var errcheckExemptFuncs = map[string]bool{
	"fmt.Print":    true,
	"fmt.Printf":   true,
	"fmt.Println":  true,
	"fmt.Fprint":   true,
	"fmt.Fprintf":  true,
	"fmt.Fprintln": true,
}

// errcheckExemptTypes lists receiver types (pointer or value) whose methods
// are documented to never return a non-nil error: the strings.Builder and
// bytes.Buffer writers, and hash.Hash ("Write ... never returns an error").
var errcheckExemptTypes = map[string]bool{
	"strings.Builder": true,
	"bytes.Buffer":    true,
	"hash.Hash":       true,
}

// errcheckStrictMethods lists durability-critical interface methods whose
// error results must be handled — even an explicit `_ =` discard is a
// finding. These are the fault-injection seams the WAL writes through: a
// silently dropped write or fsync error turns the fail-closed wearout
// guarantee into fail-open (the access proceeds with no durable record).
var errcheckStrictMethods = map[string]map[string]bool{
	"lemonade/internal/fault.File": {"Write": true, "Sync": true, "Truncate": true},
	"lemonade/internal/fault.FS":   {"Rename": true, "Truncate": true},
}

func runErrCheck(pass *Pass, pkg *Package) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !returnsError(pkg.Info, call) || exemptCall(pkg.Info, call) {
					return true
				}
				pass.Reportf("errcheck", call.Pos(),
					"error result of %s discarded; handle it or assign to _ explicitly", callName(call))
			case *ast.AssignStmt:
				// `_ = f.Sync()` is a visible discard, which the lite rule
				// allows — except on durability-critical methods.
				if len(stmt.Rhs) != 1 || !allBlank(stmt.Lhs) {
					return true
				}
				call, ok := stmt.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, strict := strictCall(pkg.Info, call); strict {
					pass.Reportf("errcheck", call.Pos(),
						"error result of durability-critical %s discarded; a dropped write/fsync error breaks the fail-closed guarantee", name)
				}
			}
			return true
		})
	}
}

// allBlank reports whether every assignment target is the blank
// identifier — i.e. the statement exists only to discard results.
func allBlank(lhs []ast.Expr) bool {
	for _, e := range lhs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// strictCall reports whether call is a method in errcheckStrictMethods,
// resolved through the receiver's type.
func strictCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return "", false
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	methods := errcheckStrictMethods[types.TypeString(recv, nil)]
	if !methods[sel.Sel.Name] {
		return "", false
	}
	return callName(call), true
}

func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorInterface)
}

func exemptCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// Package-level function: fmt.Printf and friends.
	if id, ok := sel.X.(*ast.Ident); ok {
		if pkgName, ok := info.Uses[id].(*types.PkgName); ok {
			qualified := pkgName.Imported().Path() + "." + sel.Sel.Name
			return errcheckExemptFuncs[qualified]
		}
	}
	// Method on an error-free writer: (*strings.Builder).WriteString etc.
	if selection, ok := info.Selections[sel]; ok {
		recv := selection.Recv()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		return errcheckExemptTypes[types.TypeString(recv, nil)]
	}
	return false
}

func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	default:
		s := types.ExprString(call.Fun)
		if len(s) > 40 {
			s = s[:40] + "…"
		}
		return s
	}
}
