package core

import (
	"reflect"
	"testing"

	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/cparse"
	"repro/internal/obs"
	"repro/internal/transform"
)

// renamePatch renames two CUDA calls in separate rules, then matches a
// lock/unlock path in another function, and renames once more: every
// refresh between the rules keeps each token's kind.
const renamePatch = `@paths@
@@
lock();
...
unlock();

@free@
expression list el;
@@
- cudaFree
+ hipFree
(el)

@again@
@@
lock();
...
unlock();

@malloc@
expression list el;
@@
- cudaMalloc
+ hipMalloc
(el)

@last@
expression list el;
@@
- cudaMemcpy
+ hipMemcpy
(el)
`

const renameSrc = `void guarded(void)
{
	lock();
	work();
	unlock();
}

void port(float *p, int n)
{
	cudaMalloc(&p, n);
	cudaMemcpy(p, p, n);
	cudaFree(p);
}
`

// Renames re-parse by rebinding, not by a full parse; the outputs equal
// the full-parse path's, the caller's tree is untouched, and the control
// flow graph of a function no edit touched survives the refresh.
func TestEngineRebindsKindPreservingEdits(t *testing.T) {
	p := mustPatch(t, renamePatch)
	in, err := cparse.Parse("t.c", renameSrc, cparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pristine, _ := cparse.Parse("t.c", renameSrc, cparse.Options{})

	tr := obs.New()
	eng := New(p, Options{})
	eng.SetTrace(tr.Track("t"))
	res, err := eng.RunParsed([]ParsedFile{{Name: "t.c", Src: renameSrc, File: in}})
	if err != nil {
		t.Fatal(err)
	}
	want := "void guarded(void)\n{\n\tlock();\n\twork();\n\tunlock();\n}\n\nvoid port(float *p, int n)\n{\n\thipMalloc(&p, n);\n\thipMemcpy(p, p, n);\n\thipFree(p);\n}\n"
	if got := res.Outputs["t.c"]; got != want {
		t.Fatalf("output:\n%s\nwant:\n%s", got, want)
	}
	// free edits, again and malloc refresh by rebind; last's edit stays
	// pending for the render.
	if res.Parses != 0 || res.Rebinds != 2 {
		t.Errorf("parses=%d rebinds=%d, want 0 full parses and 2 rebinds", res.Parses, res.Rebinds)
	}
	if !reflect.DeepEqual(in.Toks.Tokens, pristine.Toks.Tokens) || !reflect.DeepEqual(in.Decls, pristine.Decls) {
		t.Error("RunParsed modified the caller's tree or tokens")
	}
	prof := tr.Profile()
	if prof.Rebinds != 2 || prof.Parses != 0 {
		t.Errorf("profile counts %d full parses and %d rebinds, want 0 and 2", prof.Parses, prof.Rebinds)
	}
	// paths builds both functions' graphs; again rebuilds only port's,
	// whose FuncDef the free rebind copied. Dropping every graph on a
	// refresh would build four.
	for _, ss := range prof.Stages {
		if ss.Stage == obs.StageCFG && ss.Count != 3 {
			t.Errorf("built %d control-flow graphs, want 3: the untouched function's graph must survive the rebinds", ss.Count)
		}
	}

	// Result.Tree rebinds the last pending edit: the tree equals a full
	// parse of the output.
	tree, rebound := res.Tree("t.c")
	if tree == nil || !rebound {
		t.Fatalf("Tree = %v, %v; want a rebound parse of the output", tree != nil, rebound)
	}
	full, err := cparse.Parse("t.c", want, cparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tree.Toks.Tokens, full.Toks.Tokens) || !reflect.DeepEqual(tree.Decls, full.Decls) {
		t.Error("Tree differs from a full parse of the output")
	}

	// The same patch through Run (which parses its inputs) counts that parse.
	run, err := New(p, Options{}).Run([]SourceFile{{Name: "t.c", Src: renameSrc}})
	if err != nil {
		t.Fatal(err)
	}
	if run.Outputs["t.c"] != want || run.Parses != 1 || run.Rebinds != 2 {
		t.Errorf("Run: parses=%d rebinds=%d, output equal %v", run.Parses, run.Rebinds, run.Outputs["t.c"] == want)
	}
}

// An insertion changes the token count, so the refresh is a full parse,
// and Tree has nothing to offer for the output.
func TestEngineFullParseAfterInsertion(t *testing.T) {
	p := mustPatch(t, "@ins@\n@@\n  work();\n+ extra();\n\n@ren@\nexpression list el;\n@@\n- work\n+ labour\n(el)\n")
	res, err := New(p, Options{}).Run([]SourceFile{{Name: "t.c", Src: "void f(void)\n{\n\twork();\n}\n"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parses != 2 || res.Rebinds != 0 {
		t.Errorf("parses=%d rebinds=%d, want 2 full parses (input, refresh) and no rebind", res.Parses, res.Rebinds)
	}
	if tree, rebound := res.Tree("t.c"); tree == nil || !rebound {
		t.Errorf("the rename's pending edit keeps every kind; Tree should rebind it")
	}
	if tree, _ := res.Tree("missing.c"); tree != nil {
		t.Error("Tree returned a parse for a file the run did not hold")
	}
}

// A graph kept across a rebind is exactly the graph a fresh build over the
// new tree gives, and no graph of a copied function is kept.
func TestRebindKeepsOnlyValidGraphs(t *testing.T) {
	in, err := cparse.Parse("t.c", renameSrc, cparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := &fileState{name: "t.c", src: renameSrc, file: in, ed: transform.NewEditSet(in.Toks)}
	guarded, port := in.Decls[0].(*cast.FuncDef), in.Decls[1].(*cast.FuncDef)
	st.cfg(guarded)
	st.cfg(port)
	for i, tk := range in.Toks.Tokens {
		if tk.Text == "cudaFree" {
			st.ed.DeleteRange(i, i)
			st.ed.Insert(i, transform.Inline, "hipFree")
		}
	}
	st.dirty = true
	if !st.rebind(st.text(), cparse.Options{}) {
		t.Fatal("rebind declined a rename")
	}
	if len(st.cfgs) != 1 || st.cfgs[guarded] == nil {
		t.Fatalf("kept graphs for %d functions, want only the untouched one", len(st.cfgs))
	}
	if st.file.Decls[0] != guarded {
		t.Fatal("the untouched function was copied")
	}
	if !reflect.DeepEqual(st.cfgs[guarded], cfg.Build(st.file.Decls[0].(*cast.FuncDef))) {
		t.Error("the kept graph differs from a fresh build over the rebound tree")
	}
}
