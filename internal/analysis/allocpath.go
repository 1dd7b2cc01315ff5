package analysis

import (
	"go/ast"
	"go/types"
)

// AllocPath polices the per-candidate scoring paths and the nn training
// step in the hot packages (Scope.Hot: gbt, nn, acq, anneal, sampler, gp,
// mat, space, prior).
// The tuner evaluates tens of thousands of candidates per run, and toolkit
// training runs tens of thousands of steps, so an allocation in either
// loop is multiplied by the full stream and shows up directly in wall
// time. The analyzer computes the set of functions reachable (via
// package-local static calls) from the hot entry points — exported
// functions and methods matching Scope.HotRoots (Predict*, Score*,
// Infer*, Select*, Run*, Sample*, Forward*, Backward*, Fit*, Features*,
// Neighbor*, LogProb*, Cholesky*, Solve*) — and
// inside those flags the allocation constructs that repeatedly escape
// review:
//
//   - fmt.* calls inside a loop (every call allocates its variadic args
//     and result; error/panic exits are exempt — they fire once);
//   - append inside a loop to a slice declared in the same function
//     without preallocated capacity (var s []T / s := []T{} / make(_, 0));
//   - a function literal materialized inside a loop body other than being
//     called on the spot — stored or passed closures allocate per
//     iteration; hoist them out of the loop.
//
// The static findings are cross-validated by the escape-analysis harness
// (escape_test.go), which diffs `go build -gcflags=-m` output for the hot
// packages against testdata/escape_allowlist.txt.
var AllocPath = &Analyzer{
	Name: "allocpath",
	Doc:  "flag per-iteration allocation constructs (fmt in loops, append without prealloc, closures in loops) on paths reachable from hot scoring entry points",
	Run:  runAllocPath,
}

func runAllocPath(p *Pass) {
	if !inScope(p.Pkg.Path, Scope.Hot) {
		return
	}
	decls := map[types.Object]*ast.FuncDecl{}
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := p.Pkg.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	hot := hotReachable(p, decls)
	for obj, fd := range decls {
		if hot[obj] {
			scanAllocs(p, fd)
		}
	}
}

// hotReachable BFSes the package-local static call graph from the
// functions whose names match Scope.HotRoots.
func hotReachable(p *Pass, decls map[types.Object]*ast.FuncDecl) map[types.Object]bool {
	reached := map[types.Object]bool{}
	var queue []types.Object
	for obj := range decls {
		if Scope.HotRoots.MatchString(obj.Name()) {
			reached[obj] = true
			queue = append(queue, obj)
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		ast.Inspect(decls[obj].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var callee types.Object
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				callee = p.Pkg.Info.Uses[fun]
			case *ast.SelectorExpr:
				callee = p.Pkg.Info.Uses[fun.Sel]
			}
			if callee != nil && decls[callee] != nil && !reached[callee] {
				reached[callee] = true
				queue = append(queue, callee)
			}
			return true
		})
	}
	return reached
}

// scanAllocs walks one hot function flagging per-iteration allocations.
func scanAllocs(p *Pass, fd *ast.FuncDecl) {
	prealloc := preallocedSlices(p, fd)
	var walk func(n ast.Node, loopDepth int, onExit bool)
	walk = func(n ast.Node, loopDepth int, onExit bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.ForStmt:
			walkChildren(n, func(c ast.Node) {
				depth := loopDepth
				if c == n.Body {
					depth++
				}
				walk(c, depth, false)
			})
			return
		case *ast.RangeStmt:
			walkChildren(n, func(c ast.Node) {
				depth := loopDepth
				if c == n.Body {
					depth++
				}
				walk(c, depth, false)
			})
			return
		case *ast.ReturnStmt:
			// A fmt.Errorf on the way out fires once, not per candidate.
			walkChildren(n, func(c ast.Node) { walk(c, loopDepth, true) })
			return
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, isB := p.Pkg.Info.Uses[id].(*types.Builtin); isB && b.Name() == "panic" {
					walkChildren(n, func(c ast.Node) { walk(c, loopDepth, true) })
					return
				}
			}
			if loopDepth > 0 && !onExit {
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					if fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func); ok &&
						fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
						p.Reportf(n.Pos(), "fmt.%s inside a loop on a hot scoring path allocates per iteration; format once outside the loop or use strconv", fn.Name())
					}
				}
				if isBuiltinAppend(p, n) {
					checkLoopAppend(p, fd, n, prealloc)
				}
			}
			// An immediately-invoked literal is execution, not storage.
			if _, iife := n.Fun.(*ast.FuncLit); iife {
				if fl := n.Fun.(*ast.FuncLit); fl != nil {
					walk(fl.Body, loopDepth, false)
				}
				for _, arg := range n.Args {
					walk(arg, loopDepth, onExit)
				}
				return
			}
			walkChildren(n, func(c ast.Node) { walk(c, loopDepth, onExit) })
			return
		case *ast.FuncLit:
			if loopDepth > 0 && !onExit {
				p.Reportf(n.Pos(), "function literal materialized inside a loop on a hot scoring path allocates a closure per iteration; hoist it out of the loop")
			}
			// The literal's body runs per invocation; scan it with a fresh
			// loop context of its own.
			walk(n.Body, 0, false)
			return
		}
		walkChildren(n, func(c ast.Node) { walk(c, loopDepth, onExit) })
	}
	walk(fd.Body, 0, false)
}

// walkChildren visits the direct children of n in source order.
func walkChildren(n ast.Node, visit func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			visit(c)
		}
		return false
	})
}

// preallocedSlices collects the slice variables in fd that are declared
// with explicit capacity — make([]T, n) or make([]T, n, c) with a nonzero
// size — so loop appends into them pass clean.
func preallocedSlices(p *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range assign.Rhs {
			if i >= len(assign.Lhs) {
				break
			}
			call, ok := rhs.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				continue
			}
			fid, ok := call.Fun.(*ast.Ident)
			if !ok {
				continue
			}
			if b, isB := p.Pkg.Info.Uses[fid].(*types.Builtin); !isB || b.Name() != "make" {
				continue
			}
			capArg := call.Args[len(call.Args)-1]
			if isZeroConst(p, capArg) {
				continue
			}
			if id, ok := assign.Lhs[i].(*ast.Ident); ok {
				if obj := identObj(p, id); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// checkLoopAppend flags append(x, ...) in a loop when x is a slice
// declared in the body of fd (not a parameter, field, or package
// variable — those may be preallocated by the caller) with no explicit
// capacity. Only the grow-as-you-go accumulator pattern is flagged.
func checkLoopAppend(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr, prealloc map[types.Object]bool) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return
	}
	obj := identObj(p, id)
	v, isVar := obj.(*types.Var)
	if !isVar || v.IsField() || prealloc[obj] {
		return
	}
	if v.Pos() < fd.Body.Pos() || v.Pos() > fd.Body.End() {
		return
	}
	if _, isSlice := v.Type().Underlying().(*types.Slice); !isSlice {
		return
	}
	p.Reportf(call.Pos(), "append to %s grows an unpreallocated slice inside a hot loop; size it up front with make(len 0, cap n)", v.Name())
}
