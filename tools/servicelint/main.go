// Command servicelint fails (exit 1) if internal/service breaks either
// of the two invariants of its API surface. It is the CI gate for both:
//
//   - Routes behind the metrics middleware. Every route is registered
//     through the instrument helper, which wraps the handler in
//     obs.HTTPMetrics under its route pattern. A Handle or HandleFunc
//     call anywhere else in the package would register a route
//     invisible to the per-route latency histograms, status-class
//     counters and access log. Inside instrument, each such call must
//     pass its handler through a .Wrap(...) call, so hollowing out the
//     helper is caught the same way as bypassing it.
//   - Non-2xx responses in the error envelope. Every non-2xx body is
//     {"error":{"code":...,"message":...}}, and the only function that
//     may hand a non-2xx status to the response writer is writeAPIError.
//     A writeJSON or .WriteHeader call whose status is anything but a
//     2xx http.Status* selector or 2xx integer literal is a violation,
//     outside writeAPIError and the writeJSON transport it bottoms out
//     in (whose WriteHeader forwards a status already linted at its call
//     site). writeAPIError takes the status from the package's one error
//     table, so handlers never compute a status at runtime.
//
// Usage:
//
//	go run ./tools/servicelint [dir]
//
// dir defaults to "internal/service". The check is purely syntactic —
// it matches call shapes by name, so aliasing the mux or the writer
// does not hide a call, and it never needs type information or a build
// cache. Test files are ignored: tests may wire throwaway muxes and
// write raw statuses however they like.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	// routeHelper is the one function allowed to register routes.
	routeHelper = "instrument"
	// errorHelper is the one function allowed to write non-2xx statuses.
	errorHelper = "writeAPIError"
	// transport is the shared JSON writer errorHelper bottoms out in.
	transport = "writeJSON"
)

// okStatuses are the http.Status* selector names a handler may pass
// directly: the 2xx family the envelope contract does not cover.
var okStatuses = map[string]bool{
	"StatusOK":        true,
	"StatusCreated":   true,
	"StatusAccepted":  true,
	"StatusNoContent": true,
}

func main() {
	root := "internal/service"
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	violations, err := lint(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servicelint:", err)
		os.Exit(2)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "servicelint: %d violation(s) in %s:\n", len(violations), root)
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Printf("servicelint: every route in %s goes through %s, every non-2xx response through %s\n",
		root, routeHelper, errorHelper)
}

// lint walks root's non-test Go files and returns every violation of
// either rule as a "file:line: message" string, in sorted order.
func lint(root string) ([]string, error) {
	var violations []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		violations = append(violations, lintFile(fset, f)...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(violations)
	return violations, nil
}

// lintFile checks both rules on one parsed file. Each top-level
// declaration is walked separately so a call can be attributed to (and
// excused by) the function declaration it lives in.
func lintFile(fset *token.FileSet, f *ast.File) []string {
	var out []string
	report := func(call *ast.CallExpr, format string, args ...any) {
		pos := fset.Position(call.Pos())
		out = append(out, fmt.Sprintf("%s:%d: ", pos.Filename, pos.Line)+fmt.Sprintf(format, args...))
	}
	for _, decl := range f.Decls {
		fn := ""
		if fd, ok := decl.(*ast.FuncDecl); ok {
			fn = fd.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Handle" || sel.Sel.Name == "HandleFunc") {
				if fn != routeHelper {
					report(call, "%s call outside %s bypasses the metrics middleware", sel.Sel.Name, routeHelper)
				} else if !wrapsHandler(call) {
					report(call, "%s call inside %s does not route the handler through .Wrap(...)", sel.Sel.Name, routeHelper)
				}
			}
			if status, what := statusArg(call); status != nil && fn != errorHelper && fn != transport && !statusIs2xx(status) {
				report(call, "%s with non-2xx status %s outside %s bypasses the error envelope", what, exprString(status), errorHelper)
			}
			return true
		})
	}
	return out
}

// wrapsHandler reports whether a registration call passes its handler
// through a .Wrap(...) call, the obs.HTTPMetrics middleware.
func wrapsHandler(call *ast.CallExpr) bool {
	wrapped := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(a ast.Node) bool {
			if inner, ok := a.(*ast.CallExpr); ok {
				if s, ok := inner.Fun.(*ast.SelectorExpr); ok && s.Sel.Name == "Wrap" {
					wrapped = true
				}
			}
			return !wrapped
		})
	}
	return wrapped
}

// statusArg returns the status argument of a writeJSON(w, status, ...)
// or x.WriteHeader(status) call, and the call's name; nil otherwise.
func statusArg(call *ast.CallExpr) (ast.Expr, string) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == transport && len(call.Args) >= 2 {
			return call.Args[1], transport
		}
	case *ast.SelectorExpr:
		if fun.Sel.Name == "WriteHeader" && len(call.Args) == 1 {
			return call.Args[0], "WriteHeader"
		}
	}
	return nil, ""
}

// statusIs2xx reports whether the status expression is a whitelisted
// 2xx http.Status* selector or a 2xx integer literal. Anything else —
// a non-2xx constant, a literal like 500, or a runtime value — counts
// as a potential envelope bypass.
func statusIs2xx(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.SelectorExpr:
		return okStatuses[v.Sel.Name]
	case *ast.BasicLit:
		if v.Kind != token.INT {
			return false
		}
		n, err := strconv.Atoi(v.Value)
		return err == nil && n >= 200 && n < 300
	default:
		return false
	}
}

// exprString renders the status argument for the violation message.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.SelectorExpr:
		if x, ok := v.X.(*ast.Ident); ok {
			return x.Name + "." + v.Sel.Name
		}
		return v.Sel.Name
	case *ast.BasicLit:
		return v.Value
	case *ast.Ident:
		return v.Name
	default:
		return "?"
	}
}
