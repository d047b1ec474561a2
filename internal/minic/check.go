package minic

import "fmt"

// Builtin functions provided by the runtime library. malloc's result is
// assignable to any pointer type (old-C style), so workloads read
// naturally without casts; an explicit cast is also accepted.
var builtins = map[string]struct {
	ret    *Type
	params []*Type
}{
	"malloc": {ret: PointerTo(Char), params: []*Type{Int}},
	"free":   {ret: Void, params: []*Type{PointerTo(Char)}},
	"printi": {ret: Void, params: []*Type{Int}},
	"printc": {ret: Void, params: []*Type{Int}},
}

// IsBuiltin reports whether name is a runtime builtin.
func IsBuiltin(name string) bool {
	_, ok := builtins[name]
	return ok
}

// Check resolves names and types over the AST in place. It must run
// before code generation.
func Check(prog *Program) error {
	c := &checker{
		prog:    prog,
		globals: make(map[string]*VarDecl),
		funcs:   make(map[string]*FuncDecl),
	}
	for _, g := range prog.Globals {
		if _, dup := c.globals[g.Name]; dup {
			return errf(g.Line, 1, "duplicate global %q", g.Name)
		}
		if g.Type.Kind == TypeVoid {
			return errf(g.Line, 1, "variable %q has void type", g.Name)
		}
		c.globals[g.Name] = g
		if err := c.checkInit(g); err != nil {
			return err
		}
	}
	for _, f := range prog.Funcs {
		if _, dup := c.funcs[f.Name]; dup {
			return errf(f.Line, 1, "duplicate function %q", f.Name)
		}
		if IsBuiltin(f.Name) {
			return errf(f.Line, 1, "function %q shadows a builtin", f.Name)
		}
		c.funcs[f.Name] = f
	}
	if _, ok := c.funcs["main"]; !ok {
		return errf(1, 1, "program has no main function")
	}
	for _, f := range prog.Funcs {
		if err := c.checkFunc(f); err != nil {
			return err
		}
	}
	return nil
}

type checker struct {
	prog    *Program
	globals map[string]*VarDecl
	funcs   map[string]*FuncDecl

	fn        *FuncDecl
	scopes    []map[string]*VarDecl
	loopDepth int
	depth     int // syntax-tree nesting, bounded by MaxNesting
}

// nest opens one level of the syntax tree, failing once the tree is
// deeper than MaxNesting. Every nest is paired with a deferred unnest.
func (c *checker) nest(line int) error {
	c.depth++
	if c.depth > MaxNesting {
		return errf(line, 1, "nesting exceeds %d levels", MaxNesting)
	}
	return nil
}

func (c *checker) unnest() { c.depth-- }

func (c *checker) checkInit(d *VarDecl) error {
	switch {
	case d.InitStr != "":
		if d.Type.Kind != TypeArray || d.Type.Elem.Kind != TypeChar {
			return errf(d.Line, 1, "string initialiser requires a char array")
		}
		if len(d.InitStr)+1 > d.Type.Len {
			return errf(d.Line, 1, "string initialiser longer than array %q", d.Name)
		}
	case d.InitList != nil:
		if d.Type.Kind != TypeArray {
			return errf(d.Line, 1, "brace initialiser requires an array")
		}
		if len(d.InitList) > d.Type.Len {
			return errf(d.Line, 1, "too many initialisers for %q", d.Name)
		}
		for _, e := range d.InitList {
			if err := c.checkExpr(e); err != nil {
				return err
			}
			if !e.Type().IsArith() {
				return errf(e.Pos(), 1, "array initialiser must be arithmetic")
			}
		}
	case d.Init != nil:
		if err := c.checkExpr(d.Init); err != nil {
			return err
		}
		if err := c.assignable(d.Type, d.Init); err != nil {
			return errf(d.Line, 1, "initialising %q: %v", d.Name, err)
		}
	}
	return nil
}

func (c *checker) checkFunc(f *FuncDecl) error {
	c.fn = f
	c.scopes = []map[string]*VarDecl{make(map[string]*VarDecl, len(f.Params))}
	for _, p := range f.Params {
		if p.Type.Kind == TypeVoid {
			return errf(p.Line, 1, "parameter %q has void type", p.Name)
		}
		if _, dup := c.scopes[0][p.Name]; dup {
			return errf(p.Line, 1, "duplicate parameter %q", p.Name)
		}
		c.scopes[0][p.Name] = p
	}
	return c.checkBlock(f.Body)
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, make(map[string]*VarDecl)) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) lookup(name string) *VarDecl {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if d, ok := c.scopes[i][name]; ok {
			return d
		}
	}
	return c.globals[name]
}

func (c *checker) checkBlock(b *BlockStmt) error {
	c.pushScope()
	defer c.popScope()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	if err := c.nest(c.fn.Line); err != nil {
		return err
	}
	defer c.unnest()
	switch s := s.(type) {
	case *BlockStmt:
		return c.checkBlock(s)

	case *DeclStmt:
		for _, d := range s.Decls {
			if d.Type.Kind == TypeVoid {
				return errf(d.Line, 1, "variable %q has void type", d.Name)
			}
			if err := c.checkInit(d); err != nil {
				return err
			}
			top := c.scopes[len(c.scopes)-1]
			if _, dup := top[d.Name]; dup {
				return errf(d.Line, 1, "duplicate variable %q in scope", d.Name)
			}
			top[d.Name] = d
		}
		return nil

	case *ExprStmt:
		return c.checkExpr(s.X)

	case *IfStmt:
		if err := c.checkExpr(s.Cond); err != nil {
			return err
		}
		if err := c.condType(s.Cond); err != nil {
			return err
		}
		if s.Then != nil {
			if err := c.checkStmt(s.Then); err != nil {
				return err
			}
		}
		if s.Else != nil {
			return c.checkStmt(s.Else)
		}
		return nil

	case *WhileStmt:
		if err := c.checkExpr(s.Cond); err != nil {
			return err
		}
		if err := c.condType(s.Cond); err != nil {
			return err
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		if s.Body != nil {
			return c.checkStmt(s.Body)
		}
		return nil

	case *ForStmt:
		// The init declaration scopes over the whole loop.
		c.pushScope()
		defer c.popScope()
		if s.Init != nil {
			if err := c.checkStmt(s.Init); err != nil {
				return err
			}
		}
		if s.Cond != nil {
			if err := c.checkExpr(s.Cond); err != nil {
				return err
			}
			if err := c.condType(s.Cond); err != nil {
				return err
			}
		}
		if s.Post != nil {
			if err := c.checkExpr(s.Post); err != nil {
				return err
			}
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		if s.Body != nil {
			return c.checkStmt(s.Body)
		}
		return nil

	case *ReturnStmt:
		if s.X == nil {
			if c.fn.Ret.Kind != TypeVoid {
				return errf(s.Line, 1, "%s: return needs a value", c.fn.Name)
			}
			return nil
		}
		if c.fn.Ret.Kind == TypeVoid {
			return errf(s.Line, 1, "%s: void function returns a value", c.fn.Name)
		}
		if err := c.checkExpr(s.X); err != nil {
			return err
		}
		if err := c.assignable(c.fn.Ret, s.X); err != nil {
			return errf(s.Line, 1, "%s: return: %v", c.fn.Name, err)
		}
		return nil

	case *BreakStmt:
		if c.loopDepth == 0 {
			return errf(s.Line, 1, "break outside loop")
		}
		return nil

	case *ContinueStmt:
		if c.loopDepth == 0 {
			return errf(s.Line, 1, "continue outside loop")
		}
		return nil

	default:
		return fmt.Errorf("unknown statement %T", s)
	}
}

// condType requires an arithmetic or pointer condition.
func (c *checker) condType(e Expr) error {
	t := e.Type()
	if t.IsArith() || t.IsPointerLike() {
		return nil
	}
	return errf(e.Pos(), 1, "condition has type %s", t)
}

// assignable checks whether an expression may be assigned to type dst.
// Rules: arithmetic to arithmetic; pointer to pointer (old-C permissive,
// matching the paper's discussion of type-cast pointers in §3.9); the
// literal 0 to a pointer.
func (c *checker) assignable(dst *Type, e Expr) error {
	src := e.Type()
	switch {
	case dst.IsArith() && src.IsArith():
		return nil
	case dst.Kind == TypePointer && src.Kind == TypePointer:
		return nil
	case dst.Kind == TypePointer && isZeroLit(e):
		return nil
	default:
		return fmt.Errorf("cannot assign %s to %s", src, dst)
	}
}

func isZeroLit(e Expr) bool {
	n, ok := e.(*NumberLit)
	return ok && n.Value == 0
}

// isLValue reports whether e designates a storage location.
func isLValue(e Expr) bool {
	switch e := e.(type) {
	case *VarRef:
		return e.Decl != nil && e.Decl.Type.Kind != TypeArray
	case *Index:
		return true
	case *Unary:
		return e.Op == "*"
	default:
		return false
	}
}

func (c *checker) checkExpr(e Expr) error {
	if err := c.nest(e.Pos()); err != nil {
		return err
	}
	defer c.unnest()
	switch e := e.(type) {
	case *NumberLit:
		e.typ = Int
		return nil

	case *StringLit:
		e.typ = PointerTo(Char)
		return nil

	case *VarRef:
		d := c.lookup(e.Name)
		if d == nil {
			return errf(e.Pos(), 1, "undefined variable %q", e.Name)
		}
		e.Decl = d
		e.typ = d.Type.Decay()
		return nil

	case *Unary:
		if err := c.checkExpr(e.X); err != nil {
			return err
		}
		xt := e.X.Type()
		switch e.Op {
		case "!", "-", "~":
			if !xt.IsArith() && !(e.Op == "!" && xt.IsPointerLike()) {
				return errf(e.Pos(), 1, "operator %s requires arithmetic operand, got %s", e.Op, xt)
			}
			e.typ = Int
		case "*":
			if xt.Kind != TypePointer {
				return errf(e.Pos(), 1, "cannot dereference %s", xt)
			}
			if xt.Elem.Kind == TypeVoid {
				return errf(e.Pos(), 1, "cannot dereference void pointer")
			}
			e.typ = xt.Elem.Decay()
		case "&":
			switch x := e.X.(type) {
			case *VarRef:
				// &array yields a pointer to the first element, which is
				// what the paper's workloads use it for.
				if x.Decl.Type.Kind == TypeArray {
					e.typ = PointerTo(x.Decl.Type.Elem)
				} else {
					e.typ = PointerTo(x.Decl.Type)
				}
			case *Index:
				e.typ = x.Base.Type() // pointer to element
			default:
				return errf(e.Pos(), 1, "cannot take address of this expression")
			}
		default:
			return errf(e.Pos(), 1, "unknown unary operator %s", e.Op)
		}
		return nil

	case *IncDec:
		if err := c.checkExpr(e.X); err != nil {
			return err
		}
		if !isLValue(e.X) {
			return errf(e.Pos(), 1, "%s requires an lvalue", e.Op)
		}
		xt := e.X.Type()
		if !xt.IsArith() && xt.Kind != TypePointer {
			return errf(e.Pos(), 1, "%s requires arithmetic or pointer operand", e.Op)
		}
		e.typ = xt
		return nil

	case *Binary:
		if err := c.checkExpr(e.X); err != nil {
			return err
		}
		if err := c.checkExpr(e.Y); err != nil {
			return err
		}
		xt, yt := e.X.Type(), e.Y.Type()
		switch e.Op {
		case "+", "-":
			switch {
			case xt.IsArith() && yt.IsArith():
				e.typ = Int
			case xt.Kind == TypePointer && yt.IsArith():
				e.typ = xt
			case e.Op == "+" && xt.IsArith() && yt.Kind == TypePointer:
				e.typ = yt
			case e.Op == "-" && xt.Kind == TypePointer && yt.Kind == TypePointer:
				e.typ = Int // element count difference
			default:
				return errf(e.Pos(), 1, "invalid operands to %s: %s, %s", e.Op, xt, yt)
			}
		case "*", "/", "%", "&", "|", "^", "<<", ">>":
			if !xt.IsArith() || !yt.IsArith() {
				return errf(e.Pos(), 1, "invalid operands to %s: %s, %s", e.Op, xt, yt)
			}
			e.typ = Int
		case "==", "!=", "<", "<=", ">", ">=":
			ok := (xt.IsArith() && yt.IsArith()) ||
				(xt.Kind == TypePointer && yt.Kind == TypePointer) ||
				(xt.Kind == TypePointer && isZeroLit(e.Y)) ||
				(yt.Kind == TypePointer && isZeroLit(e.X))
			if !ok {
				return errf(e.Pos(), 1, "invalid comparison: %s, %s", xt, yt)
			}
			e.typ = Int
		case "&&", "||":
			for _, side := range []Expr{e.X, e.Y} {
				t := side.Type()
				if !t.IsArith() && !t.IsPointerLike() {
					return errf(e.Pos(), 1, "invalid operand to %s: %s", e.Op, t)
				}
			}
			e.typ = Int
		default:
			return errf(e.Pos(), 1, "unknown operator %s", e.Op)
		}
		return nil

	case *Assign:
		if err := c.checkExpr(e.LHS); err != nil {
			return err
		}
		if err := c.checkExpr(e.RHS); err != nil {
			return err
		}
		if !isLValue(e.LHS) {
			return errf(e.Pos(), 1, "assignment requires an lvalue")
		}
		lt := e.LHS.Type()
		if e.Op == "=" {
			if err := c.assignable(lt, e.RHS); err != nil {
				return errf(e.Pos(), 1, "%v", err)
			}
		} else {
			rt := e.RHS.Type()
			// Compound assignment: arithmetic op, or pointer += / -= int.
			ok := (lt.IsArith() && rt.IsArith()) ||
				((e.Op == "+=" || e.Op == "-=") && lt.Kind == TypePointer && rt.IsArith())
			if !ok {
				return errf(e.Pos(), 1, "invalid %s: %s, %s", e.Op, lt, rt)
			}
		}
		e.typ = lt
		return nil

	case *Index:
		if err := c.checkExpr(e.Base); err != nil {
			return err
		}
		if err := c.checkExpr(e.Index); err != nil {
			return err
		}
		bt := e.Base.Type()
		if bt.Kind != TypePointer {
			return errf(e.Pos(), 1, "cannot index %s", bt)
		}
		if !e.Index.Type().IsArith() {
			return errf(e.Pos(), 1, "array index must be arithmetic")
		}
		e.typ = bt.Elem.Decay()
		return nil

	case *Call:
		for _, a := range e.Args {
			if err := c.checkExpr(a); err != nil {
				return err
			}
		}
		if bi, ok := builtins[e.Name]; ok {
			if len(e.Args) != len(bi.params) {
				return errf(e.Pos(), 1, "%s takes %d argument(s)", e.Name, len(bi.params))
			}
			for i, want := range bi.params {
				got := e.Args[i].Type()
				if want.IsArith() && got.IsArith() {
					continue
				}
				if want.Kind == TypePointer && (got.Kind == TypePointer || isZeroLit(e.Args[i])) {
					continue
				}
				return errf(e.Pos(), 1, "%s: argument %d has type %s", e.Name, i+1, got)
			}
			e.typ = bi.ret
			return nil
		}
		fn, ok := c.funcs[e.Name]
		if !ok {
			return errf(e.Pos(), 1, "undefined function %q", e.Name)
		}
		if len(e.Args) != len(fn.Params) {
			return errf(e.Pos(), 1, "%s takes %d argument(s), got %d", e.Name, len(fn.Params), len(e.Args))
		}
		for i, p := range fn.Params {
			if err := c.assignable(p.Type, e.Args[i]); err != nil {
				return errf(e.Pos(), 1, "%s: argument %d: %v", e.Name, i+1, err)
			}
		}
		e.Decl = fn
		e.typ = fn.Ret
		return nil

	case *Cast:
		if err := c.checkExpr(e.X); err != nil {
			return err
		}
		xt := e.X.Type()
		ok := (e.To.IsArith() && (xt.IsArith() || xt.Kind == TypePointer)) ||
			(e.To.Kind == TypePointer && (xt.Kind == TypePointer || xt.IsArith()))
		if !ok {
			return errf(e.Pos(), 1, "invalid cast from %s to %s", xt, e.To)
		}
		e.typ = e.To
		return nil

	default:
		return fmt.Errorf("unknown expression %T", e)
	}
}
