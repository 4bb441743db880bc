package cparse

import (
	"sort"

	"repro/internal/cast"
	"repro/internal/ctoken"
	"repro/internal/transform"
)

// RebindEdits returns the parse of text — the rendering of ed, a set of
// edits against f's tokens — without a full parse, when every edit keeps
// every token's kind: it derives text's tokens from the edits
// (transform.EditSet.Retoken) and rebinds f to them (see rebind). ok is
// false when the edits do not have that shape, when they would switch on
// CUDA chevrons the lex of f did not use, and wherever rebind declines;
// the caller then parses text in full. f must be a parse under opts, and
// neither f nor its tokens are modified.
func RebindEdits(f *cast.File, ed *transform.EditSet, text string, opts Options) (*cast.File, bool) {
	lo := lexOptions(f.Toks.Src, opts)
	if lo != lexOptions(text, opts) {
		return nil, false
	}
	toks, changed, ok := ed.Retoken(text, lo)
	if !ok {
		return nil, false
	}
	return rebind(f, toks, changed, opts)
}

// rebind returns the parse of toks given f, a parse of a token file that
// differs from toks only in the identifier and directive texts at the
// sorted indices changed: same token count, kinds, whitespace and every
// other text. The parser's decisions read identifier texts only through
// the keyword set and the __attribute__ marker, and a directive is one
// node, so when no changed identifier (old or new) is one of those, the
// new parse has f's shape and differs only in the fields copied from token
// texts and in the directive nodes. rebind path-copies the nodes whose
// spans contain a changed token, recomputing those fields from toks, and
// shares every other subtree with f. ok is false for pattern parses, for
// a changed identifier the parser may branch on, and for a changed token
// inside a node kind rebind cannot recompute. f and its token file are
// never modified.
func rebind(f *cast.File, toks *ctoken.File, changed []int, opts Options) (*cast.File, bool) {
	if opts.pattern() || len(toks.Tokens) != len(f.Toks.Tokens) {
		return nil, false
	}
	for _, i := range changed {
		if toks.Tokens[i].Kind == ctoken.Ident && (steers(f.Toks.Tokens[i].Text) || steers(toks.Tokens[i].Text)) {
			return nil, false
		}
	}
	r := &rebinder{toks: toks, changed: changed, opts: opts, ok: true}
	out := &cast.File{Name: f.Name, Toks: toks, Decls: rebindAll(r, f.Decls, r.decl)}
	if !r.ok {
		return nil, false
	}
	if checkRebind {
		mustMatchParse(out, opts)
	}
	return out, true
}

// steers reports whether the parser branches on an identifier with this
// text (outside pattern mode).
func steers(text string) bool {
	return ctoken.Keywords[text] || text == "__attribute__"
}

// rebinder carries one rebind walk. Each method returns its node unchanged
// when the node's span holds no changed token, and otherwise a copy with
// rebound children and recomputed text fields. ok turns false on a node
// kind it cannot recompute; the walk's result is then discarded.
type rebinder struct {
	toks    *ctoken.File
	changed []int
	opts    Options
	ok      bool
}

// touched reports whether n's span holds a changed token.
func (r *rebinder) touched(n cast.Node) bool {
	first, last := n.Span()
	i := sort.SearchInts(r.changed, first)
	return i < len(r.changed) && r.changed[i] <= last
}

func (r *rebinder) text(i int) string { return r.toks.Tokens[i].Text }

func (r *rebinder) decl(d cast.Decl) cast.Decl {
	if cast.IsNil(d) || !r.touched(d) {
		return d
	}
	switch x := d.(type) {
	case *cast.FuncDef:
		return r.funcDef(x)
	case *cast.VarDecl:
		return r.varDecl(x)
	case *cast.OpaqueDecl:
		c := *x
		first, last := x.Span()
		c.Raw = r.toks.Slice(first, last)
		return &c
	case *cast.Include, *cast.Pragma, *cast.PPOther:
		// A directive is one token, re-parsed whole.
		first, _ := x.Span()
		nd, err := r.parserAt(first).parsePP()
		if err != nil {
			r.ok = false
			return d
		}
		return nd
	}
	r.ok = false
	return d
}

// parserAt returns a parser over the new tokens positioned at token i, for
// re-parsing a node whose every field derives from its tokens.
func (r *rebinder) parserAt(i int) *parser {
	return &parser{toks: r.toks.Tokens, file: r.toks, opts: r.opts, pos: i}
}

func (r *rebinder) funcDef(x *cast.FuncDef) *cast.FuncDef {
	if x == nil || !r.touched(x) {
		return x
	}
	c := *x
	c.Attrs = rebindAll(r, x.Attrs, r.attr)
	c.Ret = r.typ(x.Ret)
	c.Name = r.ident(x.Name)
	c.Params = r.paramList(x.Params)
	c.Body = r.compound(x.Body)
	return &c
}

func (r *rebinder) attr(x *cast.Attr) *cast.Attr {
	if x == nil || !r.touched(x) {
		return x
	}
	c := *x
	c.Args = rebindAll(r, x.Args, r.expr)
	return &c
}

func (r *rebinder) varDecl(x *cast.VarDecl) *cast.VarDecl {
	if x == nil || !r.touched(x) {
		return x
	}
	c := *x
	c.Type = r.typ(x.Type)
	c.Items = rebindAll(r, x.Items, r.declarator)
	return &c
}

func (r *rebinder) declarator(x *cast.Declarator) *cast.Declarator {
	if x == nil || !r.touched(x) {
		return x
	}
	c := *x
	c.Name = r.ident(x.Name)
	c.Dims = rebindAll(r, x.Dims, r.expr)
	c.Init = r.expr(x.Init)
	return &c
}

func (r *rebinder) paramList(x *cast.ParamList) *cast.ParamList {
	if x == nil || !r.touched(x) {
		return x
	}
	c := *x
	c.Params = rebindAll(r, x.Params, r.param)
	return &c
}

func (r *rebinder) param(x *cast.Param) *cast.Param {
	if x == nil || !r.touched(x) {
		return x
	}
	c := *x
	c.Type = r.typ(x.Type)
	c.Name = r.ident(x.Name)
	return &c
}

// typ recomputes Type.Base by re-running parseType over the new tokens at
// the type's first token: the base name is the one field assembled from
// several token texts (qualified names, template arguments). The callers'
// adjustments to Stars and Ref are kept from the old node.
func (r *rebinder) typ(x *cast.Type) *cast.Type {
	if x == nil || !r.touched(x) {
		return x
	}
	first, last := x.Span()
	ty, err := r.parserAt(first).parseType()
	if err != nil {
		r.ok = false
		return x
	}
	if f, l := ty.Span(); f != first || l != last {
		r.ok = false
		return x
	}
	c := *x
	c.Base = ty.Base
	return &c
}

func (r *rebinder) ident(x *cast.Ident) *cast.Ident {
	if x == nil || !r.touched(x) {
		return x
	}
	c := *x
	first, _ := x.Span()
	c.Name = r.text(first)
	return &c
}

func (r *rebinder) compound(x *cast.Compound) *cast.Compound {
	if x == nil || !r.touched(x) {
		return x
	}
	c := *x
	c.Items = rebindAll(r, x.Items, r.stmt)
	return &c
}

func (r *rebinder) stmt(s cast.Stmt) cast.Stmt {
	if cast.IsNil(s) || !r.touched(s) {
		return s
	}
	switch x := s.(type) {
	case *cast.Compound:
		return r.compound(x)
	case *cast.ExprStmt:
		c := *x
		c.X = r.expr(x.X)
		return &c
	case *cast.DeclStmt:
		c := *x
		c.D = r.varDecl(x.D)
		return &c
	case *cast.If:
		c := *x
		c.Cond = r.expr(x.Cond)
		c.Then = r.stmt(x.Then)
		c.Else = r.stmt(x.Else)
		return &c
	case *cast.For:
		c := *x
		c.Init = r.stmt(x.Init)
		c.Cond = r.expr(x.Cond)
		c.Post = r.expr(x.Post)
		c.Body = r.stmt(x.Body)
		return &c
	case *cast.RangeFor:
		c := *x
		c.Decl = r.varDecl(x.Decl)
		c.X = r.expr(x.X)
		c.Body = r.stmt(x.Body)
		return &c
	case *cast.While:
		c := *x
		c.Cond = r.expr(x.Cond)
		c.Body = r.stmt(x.Body)
		return &c
	case *cast.DoWhile:
		c := *x
		c.Body = r.stmt(x.Body)
		c.Cond = r.expr(x.Cond)
		return &c
	case *cast.Return:
		c := *x
		c.X = r.expr(x.X)
		return &c
	case *cast.Goto:
		c := *x
		first, _ := x.Span()
		c.Label = r.text(first + 1)
		return &c
	case *cast.Label:
		c := *x
		first, _ := x.Span()
		c.Name = r.text(first)
		c.Stmt = r.stmt(x.Stmt)
		return &c
	case *cast.Switch:
		c := *x
		c.Cond = r.expr(x.Cond)
		c.Body = r.stmt(x.Body)
		return &c
	case *cast.Case:
		c := *x
		c.X = r.expr(x.X)
		return &c
	case *cast.PragmaStmt:
		// A directive in statement position: one token, re-parsed whole.
		first, _ := x.Span()
		ns, err := r.parserAt(first).parseStmt()
		if err != nil {
			r.ok = false
			return s
		}
		return ns
	case *cast.Break, *cast.Continue, *cast.Empty:
		return s // hold no identifier
	}
	r.ok = false
	return s
}

func (r *rebinder) expr(e cast.Expr) cast.Expr {
	if cast.IsNil(e) || !r.touched(e) {
		return e
	}
	switch x := e.(type) {
	case *cast.Ident:
		return r.ident(x)
	case *cast.Type:
		return r.typ(x)
	case *cast.ParenExpr:
		c := *x
		c.X = r.expr(x.X)
		return &c
	case *cast.UnaryExpr:
		c := *x
		c.X = r.expr(x.X)
		return &c
	case *cast.BinaryExpr:
		c := *x
		c.X = r.expr(x.X)
		c.Y = r.expr(x.Y)
		return &c
	case *cast.CondExpr:
		c := *x
		c.Cond = r.expr(x.Cond)
		c.Then = r.expr(x.Then)
		c.Else = r.expr(x.Else)
		return &c
	case *cast.CallExpr:
		c := *x
		c.Fun = r.expr(x.Fun)
		c.Args = rebindAll(r, x.Args, r.expr)
		return &c
	case *cast.IndexExpr:
		c := *x
		c.X = r.expr(x.X)
		c.Indices = rebindAll(r, x.Indices, r.expr)
		return &c
	case *cast.MemberExpr:
		c := *x
		c.X = r.expr(x.X)
		c.Name = r.text(x.NameT)
		return &c
	case *cast.CastExpr:
		c := *x
		c.Type = r.typ(x.Type)
		c.X = r.expr(x.X)
		return &c
	case *cast.SizeofExpr:
		c := *x
		c.Type = r.typ(x.Type)
		c.X = r.expr(x.X)
		return &c
	case *cast.CommaExpr:
		c := *x
		c.List = rebindAll(r, x.List, r.expr)
		return &c
	case *cast.InitList:
		c := *x
		c.Elems = rebindAll(r, x.Elems, r.expr)
		return &c
	case *cast.KernelLaunch:
		c := *x
		c.Fun = r.expr(x.Fun)
		c.Config = rebindAll(r, x.Config, r.expr)
		c.Args = rebindAll(r, x.Args, r.expr)
		return &c
	case *cast.OpaqueExpr:
		c := *x
		first, last := x.Span()
		c.Raw = r.toks.Slice(first, last)
		return &c
	}
	// BasicLit never holds a changed token (identifier literals are
	// keywords); LambdaExpr's capture text is not recomputed.
	r.ok = false
	return e
}

// rebindAll maps fn over list, copying the slice only when an element
// changed, so untouched lists (nil ones included) stay shared.
func rebindAll[T comparable](r *rebinder, list []T, fn func(T) T) []T {
	var out []T
	for i, x := range list {
		y := fn(x)
		if y == x {
			continue
		}
		if out == nil {
			out = make([]T, len(list))
			copy(out, list)
		}
		out[i] = y
	}
	if out == nil {
		return list
	}
	return out
}
